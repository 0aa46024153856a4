"""Treebank data model and CoNLL-X I/O.

A sentence is a list of tokens plus a virtual ROOT at position 0; a
dependency tree stores one head index per position (``heads[0] == -1`` as a
sentinel for ROOT, which has no head) and one relation label string per real
token. Labels stay strings at this layer — integer ids exist only inside the
model, via :class:`Vocabulary`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .autodiff import Rng

ROOT_FORM = "<ROOT>"
PAD, UNK, ROOT_ID = 0, 1, 2
RESERVED = ("<PAD>", "<UNK>", ROOT_FORM)


class TreebankError(ValueError):
    """Raised for malformed CoNLL input or ill-formed trees."""


@dataclass(frozen=True)
class Token:
    form: str
    pos: str


@dataclass(frozen=True)
class Sentence:
    """Bare token sequence (no arcs), for parsing unannotated input."""

    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class DependencyTree:
    """One parsed sentence.

    ``tokens`` excludes ROOT; ``heads`` and positions are over 0..n with 0 =
    ROOT, so ``len(heads) == len(tokens) + 1``. ``labels[i]`` is the relation
    of token i+1 to its head.
    """

    tokens: tuple[Token, ...]
    heads: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.tokens)
        if len(self.heads) != n + 1:
            raise TreebankError(
                f"expected {n + 1} head entries for {n} tokens, got {len(self.heads)}"
            )
        if len(self.labels) != n:
            raise TreebankError(
                f"expected {n} labels for {n} tokens, got {len(self.labels)}"
            )
        if self.heads[0] != -1:
            raise TreebankError("position 0 is ROOT and must carry head -1")

    def __len__(self) -> int:
        return len(self.tokens)


def validate_tree(heads: Sequence[int], allow_multiple_roots: bool = False) -> None:
    """Check that ``heads`` (indexed 0..n, heads[0] == -1) encodes a tree.

    Every real position must reach ROOT without cycles; by default exactly
    one token may attach to ROOT.
    """
    n = len(heads) - 1
    if n < 1:
        raise TreebankError("a sentence needs at least one token")
    if heads[0] != -1:
        raise TreebankError("position 0 is ROOT and must carry head -1")
    root_children = 0
    for i in range(1, n + 1):
        h = heads[i]
        if not 0 <= h <= n:
            raise TreebankError(f"token {i} has out-of-range head {h}")
        if h == i:
            raise TreebankError(f"token {i} is its own head")
        if h == 0:
            root_children += 1
    if root_children == 0:
        raise TreebankError("no token attaches to ROOT")
    if root_children > 1 and not allow_multiple_roots:
        raise TreebankError(f"{root_children} tokens attach to ROOT")
    # Cycle check: walk each token up; a walk longer than n must loop.
    for i in range(1, n + 1):
        cur, hops = i, 0
        while cur != 0:
            cur = heads[cur]
            hops += 1
            if hops > n:
                raise TreebankError(f"cycle through token {i}")


def make_tree(tokens: Sequence[Token], heads: Sequence[int], labels: Sequence[str],
              allow_multiple_roots: bool = False) -> DependencyTree:
    validate_tree(heads, allow_multiple_roots=allow_multiple_roots)
    return DependencyTree(tuple(tokens), tuple(heads), tuple(labels))


# ---------------------------------------------------------------------------
# CoNLL-X reading and writing
# ---------------------------------------------------------------------------

_N_FIELDS = 10


def _parse_token_line(lineno: int, line: str, expected_id: int) -> tuple[Token, str, str]:
    """One CoNLL-X row -> (token, head text, label). Columns: ID FORM LEMMA
    CPOS POS FEATS HEAD DEPREL PHEAD PDEPREL; POS comes from CPOS with the
    plain POS column as fallback when CPOS is "_"."""
    fields = line.split("\t")
    if len(fields) != _N_FIELDS:
        raise TreebankError(
            f"line {lineno}: expected {_N_FIELDS} tab-separated fields, got {len(fields)}"
        )
    try:
        token_id = int(fields[0])
    except ValueError:
        raise TreebankError(f"line {lineno}: non-integer token id {fields[0]!r}") from None
    if token_id != expected_id:
        raise TreebankError(
            f"line {lineno}: token id {token_id} out of order (expected {expected_id})"
        )
    form = fields[1]
    if not form:
        raise TreebankError(f"line {lineno}: empty FORM field")
    pos = fields[3] if fields[3] != "_" else fields[4]
    return Token(form=form, pos=pos), fields[6], fields[7]


def _parse_block(lines: list[tuple[int, str]], allow_multiple_roots: bool) -> DependencyTree:
    tokens: list[Token] = []
    heads: list[int] = [-1]
    labels: list[str] = []
    for expected_id, (lineno, line) in enumerate(lines, start=1):
        token, head_text, label = _parse_token_line(lineno, line, expected_id)
        try:
            head = int(head_text)
        except ValueError:
            raise TreebankError(f"line {lineno}: non-integer head {head_text!r}") from None
        tokens.append(token)
        heads.append(head)
        labels.append(label)
    if not tokens:
        raise TreebankError("empty sentence block")
    try:
        validate_tree(heads, allow_multiple_roots=allow_multiple_roots)
    except TreebankError as exc:
        raise TreebankError(f"sentence ending at line {lines[-1][0]}: {exc}") from None
    return DependencyTree(tuple(tokens), tuple(heads), tuple(labels))


def _open_text(path: str | Path) -> TextIO:
    """A file's UTF-8 text, with the universal newlines ``open`` gives; a
    byte sequence that is not UTF-8 is a TreebankError naming its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TreebankError(f"line {line}: invalid UTF-8 byte {data[exc.start]:#04x}") from None
    return io.StringIO(text, newline=None)


def _blocks(source: TextIO) -> Iterator[list[tuple[int, str]]]:
    block: list[tuple[int, str]] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if line.startswith("#"):
            continue
        if not line.strip():
            if block:
                yield block
                block = []
            continue
        block.append((lineno, line))
    if block:
        yield block


def parse_conll(source: str | Path | TextIO, allow_multiple_roots: bool = False
                ) -> list[DependencyTree]:
    """Read CoNLL-X sentences (10 tab-separated columns, blank-line separated).

    Columns used: ID, FORM, CPOS (POS as fallback), HEAD, DEPREL; the rest
    pass through unvalidated. Comment lines start with '#'. Errors carry
    line numbers.
    """
    if isinstance(source, (str, Path)):
        return parse_conll(_open_text(source), allow_multiple_roots=allow_multiple_roots)
    return [_parse_block(b, allow_multiple_roots) for b in _blocks(source)]


def parse_conll_blocks(source: str | Path | TextIO
                       ) -> list[tuple[Sentence, list[list[str]]]]:
    """Sentences plus their raw field rows, tolerating unannotated HEAD and
    DEPREL columns — the rewrite path for parsing fresh text keeps every
    other column untouched."""
    if isinstance(source, (str, Path)):
        return parse_conll_blocks(_open_text(source))
    out: list[tuple[Sentence, list[list[str]]]] = []
    for block in _blocks(source):
        tokens: list[Token] = []
        rows: list[list[str]] = []
        for i, (lineno, line) in enumerate(block, start=1):
            tokens.append(_parse_token_line(lineno, line, i)[0])
            rows.append(line.split("\t"))
        out.append((Sentence(tuple(tokens)), rows))
    return out


def write_conll(trees: Iterable[DependencyTree], target: str | Path | TextIO) -> None:
    """Write trees in the same 10-column shape parse_conll reads."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            write_conll(trees, fh)
            return
    for tree in trees:
        for i, token in enumerate(tree.tokens, start=1):
            fields = (
                str(i), token.form, "_", token.pos, token.pos, "_",
                str(tree.heads[i]), tree.labels[i - 1], "_", "_",
            )
            target.write("\t".join(fields) + "\n")
        target.write("\n")


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


@dataclass
class Vocabulary:
    """Ordered symbol table with reserved ids 0..2 (<PAD>, <UNK>, <ROOT>).

    Label vocabularies skip the reservations (``reserved=False``) — every id
    is a real relation and lookup of an unknown label is an error rather than
    an UNK mapping.
    """

    symbols: tuple[str, ...]
    reserved: bool = True
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for i, s in enumerate(self.symbols):
            if index.setdefault(s, i) != i:
                raise TreebankError(f"duplicate symbol {s!r} in vocabulary")
        if self.reserved and self.symbols[:3] != RESERVED:
            raise TreebankError(f"reserved slots must be {RESERVED}")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def index(self, symbol: str) -> int:
        if self.reserved:
            return self._index.get(symbol, UNK)
        try:
            return self._index[symbol]
        except KeyError:
            raise TreebankError(f"unknown label {symbol!r}") from None

    def symbol(self, idx: int) -> str:
        return self.symbols[idx]

    def extended_with(self, new_symbols: Sequence[str]) -> "Vocabulary":
        """Append genuinely new symbols; existing ids are untouched."""
        added = [s for s in new_symbols if s not in self._index]
        return Vocabulary(self.symbols + tuple(added), reserved=self.reserved)


def count_symbols(trees: Sequence[DependencyTree]) -> dict[str, dict[str, int]]:
    """Occurrence counts of every word, char, POS tag and label ("word",
    "char", "pos", "label"), each dict in vocabulary order: by
    (-frequency, lexicographic)."""
    counts: dict[str, dict[str, int]] = {"word": {}, "char": {}, "pos": {}, "label": {}}
    words, chars, poses, labels = counts.values()
    for tree in trees:
        for token in tree.tokens:
            words[token.form] = words.get(token.form, 0) + 1
            poses[token.pos] = poses.get(token.pos, 0) + 1
            for ch in token.form:
                chars[ch] = chars.get(ch, 0) + 1
        for lbl in tree.labels:
            labels[lbl] = labels.get(lbl, 0) + 1
    return {key: {s: found[s] for s in sorted(found, key=lambda s: (-found[s], s))}
            for key, found in counts.items()}


def build_vocabulary(trees: Sequence[DependencyTree], min_word_count: int = 2
                     ) -> dict[str, Vocabulary]:
    """Count symbols over a corpus and build the four model vocabularies.

    Returns keys "word", "char", "pos", "label". Symbols beyond the reserved
    block are ordered by (-frequency, lexicographic); ``min_word_count``
    applies to words only — rarer words hit UNK at lookup. Chars, POS tags
    and labels are kept regardless of frequency; a reserved spelling keeps
    its reserved id, as in :meth:`Vocabulary.extended_with`.
    """
    counts = count_symbols(trees)
    words = tuple(w for w, c in counts["word"].items() if c >= min_word_count)
    return {
        "word": Vocabulary(RESERVED).extended_with(words),
        "char": Vocabulary(RESERVED).extended_with(list(counts["char"])),
        "pos": Vocabulary(RESERVED).extended_with(list(counts["pos"])),
        "label": Vocabulary(tuple(counts["label"]), reserved=False),
    }


def load_pretrained_embeddings(path: str | Path, vocab: Vocabulary, dim: int,
                               rng: Rng) -> np.ndarray:
    """Read word vectors, one word and ``dim`` values per line separated by
    whitespace, after an optional "count dim" header (a first line of two
    integers); OOV rows get uniform +-0.05.

    Every in-vocabulary row, including PAD/UNK/ROOT, starts random and is
    overwritten where the file provides a vector. Blank lines are skipped.
    A line with the wrong field count, a vector the vocabulary uses that
    holds a non-number or a non-finite value, and a byte that is not UTF-8
    are each a TreebankError naming the line.
    """
    table = rng.split("pretrained-fill").uniform(-0.05, 0.05, (len(vocab), dim))
    for lineno, line in enumerate(_open_text(path), start=1):
        parts = line.split()
        if not parts or (lineno == 1 and len(parts) == 2 and "".join(parts).isdecimal()):
            continue  # blank line, or the optional "count dim" header
        if len(parts) != dim + 1:
            raise TreebankError(f"line {lineno}: expected {dim + 1} fields, got {len(parts)}")
        word = parts[0]
        if word in vocab:
            try:
                values = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise TreebankError(f"line {lineno}: {exc}") from None
            if not np.isfinite(values).all():
                raise TreebankError(f"line {lineno}: non-finite value for {word!r}")
            table[vocab.index(word)] = values
    return table
