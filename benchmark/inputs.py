"""Seeded input generators for the benchmark workloads.

Everything here depends only on the seed and a stream name, through
``random.Random`` seeded with a string, so the inputs do not change when the
program's own random number code does. Two families of corpora:

* ``grammar_corpus``: the template grammar of ``tests/synthetic.py`` (copied
  here so that edits to the tests cannot change the benchmark's inputs),
  giving single-rooted projective trees of 2-6 tokens over at most 30 word
  types. Templates are drawn in shuffled rounds, so every seed gets nearly
  the same mix of lengths.
* ``random_corpus``: random trees of a given list of lengths over a pool of
  several thousand multi-character forms, alternating projective and
  non-projective shapes.
"""

from __future__ import annotations

import random
from typing import Sequence

from stackptr.treebank import DependencyTree, Token

# Template grammar: POS sequence, head per token (1-indexed, 0 = ROOT), labels.
TEMPLATES: list[tuple[list[str], list[int], list[str]]] = [
    (["NN", "VV"], [2, 0], ["nsubj", "root"]),
    (["DT", "NN", "VV"], [2, 3, 0], ["det", "nsubj", "root"]),
    (["JJ", "NN", "VV"], [2, 3, 0], ["amod", "nsubj", "root"]),
    (["NN", "VV", "NN"], [2, 0, 2], ["nsubj", "root", "dobj"]),
    (["NN", "AD", "VV"], [3, 3, 0], ["nsubj", "advmod", "root"]),
    (["DT", "JJ", "NN", "VV"], [3, 3, 4, 0], ["det", "amod", "nsubj", "root"]),
    (["NN", "AD", "VV", "NN"], [3, 3, 0, 3], ["nsubj", "advmod", "root", "dobj"]),
    (["JJ", "NN", "VV", "NN"], [2, 3, 0, 3], ["amod", "nsubj", "root", "dobj"]),
    (["DT", "NN", "VV", "JJ", "NN"], [2, 3, 0, 5, 3],
     ["det", "nsubj", "root", "amod", "dobj"]),
    (["NN", "VV", "DT", "NN", "AD"], [2, 0, 4, 2, 2],
     ["nsubj", "root", "det", "dobj", "advmod"]),
    (["DT", "JJ", "NN", "AD", "VV", "NN"], [3, 3, 5, 5, 0, 5],
     ["det", "amod", "nsubj", "advmod", "root", "dobj"]),
]

SOURCE_POOLS: dict[str, list[str]] = {
    "NN": ["猫", "狗", "鱼", "鸟", "马", "书", "车", "山", "水", "花"],
    "VV": ["睡", "跑", "吃", "看", "写", "买"],
    "JJ": ["小", "大", "红", "新"],
    "DT": ["这", "那", "每"],
    "AD": ["很", "也", "常"],
}

TARGET_POOLS: dict[str, list[str]] = {
    "NN": ["猫", "狗", "鱼", "鸟", "马", "书", "车", "山", "鹿"],
    "VV": ["睡", "跑", "吃", "看", "飞"],
    "JJ": ["小", "大", "红", "高"],
    "DT": ["这", "那"],
    "AD": ["很", "又"],
}

POS_TAGS = ("NN", "NR", "VV", "VA", "JJ", "AD", "DT", "CD", "M", "P", "CC", "PU")
LABELS = ("nsubj", "dobj", "iobj", "amod", "advmod", "det", "nummod", "case",
          "mark", "cc", "conj", "punct", "compound", "nmod", "obl", "xcomp",
          "ccomp", "acl", "aux", "dep")
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def stream(seed: int, name: str) -> random.Random:
    """Independent generator for one named input stream of one seed."""
    return random.Random(f"stackptr-bench:{seed}:{name}")


def grammar_corpus(rng: random.Random, size: int,
                   pools: dict[str, list[str]]) -> list[DependencyTree]:
    trees: list[DependencyTree] = []
    order: list[int] = []
    while len(trees) < size:
        if not order:
            order = rng.sample(range(len(TEMPLATES)), len(TEMPLATES))
        pos_seq, heads, labels = TEMPLATES[order.pop()]
        tokens = tuple(Token(rng.choice(pools[pos]), pos) for pos in pos_seq)
        trees.append(DependencyTree(tokens, (-1, *heads), tuple(labels)))
    return trees


def form_pool(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct lowercase forms of 3-9 characters."""
    forms: set[str] = set()
    ordered: list[str] = []
    while len(ordered) < size:
        form = "".join(rng.choice(LETTERS) for _ in range(rng.randint(3, 9)))
        if form not in forms:
            forms.add(form)
            ordered.append(form)
    return ordered


def complementary_lengths(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` lengths in [lo, hi] drawn as pairs (L, lo+hi-L), shuffled.

    Every seed then parses the same number of tokens, so throughput does not
    drift with the draw. ``count`` must be even.
    """
    if count % 2:
        raise ValueError(f"count must be even, got {count}")
    lengths: list[int] = []
    for _ in range(count // 2):
        n = rng.randint(lo, hi)
        lengths += [n, lo + hi - n]
    rng.shuffle(lengths)
    return lengths


def _projective_heads(rng: random.Random, n: int) -> list[int]:
    """Heads of a random projective tree: every subtree is an interval."""
    heads = [-1] + [0] * n

    def build(lo: int, hi: int, parent: int) -> None:
        # Cut [lo, hi] into contiguous chunks; each chunk is one subtree of
        # ``parent`` headed at a random position inside it.
        start = lo
        while start <= hi:
            stop = rng.randint(start, hi)
            head = rng.randint(start, stop)
            heads[head] = parent
            if start < head:
                build(start, head - 1, head)
            if head < stop:
                build(head + 1, stop, head)
            start = stop + 1

    root = rng.randint(1, n)
    heads[root] = 0
    if root > 1:
        build(1, root - 1, root)
    if root < n:
        build(root + 1, n, root)
    return heads


def _recursive_heads(rng: random.Random, n: int) -> list[int]:
    """Heads of a random recursive tree: tokens join in random order, each
    under a random earlier one; almost always non-projective."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [-1] + [0] * n
    for k, token in enumerate(order[1:], start=1):
        heads[token] = order[rng.randrange(k)]
    return heads


def is_projective(heads: Sequence[int]) -> bool:
    """True when no two arcs cross (ROOT arcs included)."""
    arcs = [tuple(sorted((heads[i], i))) for i in range(1, len(heads))]
    for a_lo, a_hi in arcs:
        for b_lo, b_hi in arcs:
            if a_lo < b_lo < a_hi < b_hi:
                return False
    return True


def random_tree(rng: random.Random, n: int, forms: Sequence[str],
                projective: bool) -> DependencyTree:
    heads = _projective_heads(rng, n) if projective else _recursive_heads(rng, n)
    tokens = tuple(Token(rng.choice(forms), rng.choice(POS_TAGS)) for _ in range(n))
    labels = tuple("root" if heads[i] == 0 else rng.choice(LABELS)
                   for i in range(1, n + 1))
    return DependencyTree(tokens, tuple(heads), labels)


def random_corpus(rng: random.Random, lengths: Sequence[int],
                  forms: Sequence[str]) -> list[DependencyTree]:
    """One tree per length; even positions projective, odd ones not."""
    return [random_tree(rng, n, forms, projective=i % 2 == 0)
            for i, n in enumerate(lengths)]
