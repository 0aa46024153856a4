import warnings
from pathlib import Path

import pytest

from stackptr.config import TrainConfig
from stackptr.treebank import build_vocabulary, parse_conll

# When a @given test fails, Hypothesis's pytest plugin imports this module to
# write a patch. It imports libcst, which raises a DeprecationWarning that
# pyproject.toml makes an error, and the plugin catches only ImportError, so
# the session would stop with INTERNALERROR before printing the falsifying
# example. Importing it here, with that warning ignored, makes the plugin's
# later import a lookup.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # without libcst the plugin skips its patch itself
        pass

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def toy_trees():
    return parse_conll(DATA / "toy_train.conllx")


@pytest.fixture(scope="session")
def tiny_config():
    """Smallest config that still exercises every code path."""
    return TrainConfig(d_w=6, char_dim=3, pos_dim=3, num_filters=3, r=2,
                       d_h=4, arc_mlp_dim=5, label_mlp_dim=4, batch_size=8,
                       max_epochs=3, patience=5, min_word_count=1, seed=42)


@pytest.fixture(scope="session")
def toy_vocabs(toy_trees):
    return build_vocabulary(toy_trees, min_word_count=1)
