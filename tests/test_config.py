"""Configuration dataclass: validation, derived dims, flat-text round trips."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackptr.config import (
    ATTENTION_SCALES,
    CHILD_ORDERS,
    ArchitectureMismatch,
    ConfigError,
    TrainConfig,
)

FIELDS = [f.name for f in dataclasses.fields(TrainConfig)]


class TestDefaults:
    def test_full_scale_dims(self):
        config = TrainConfig()
        assert (config.d_w, config.char_dim, config.pos_dim) == (300, 50, 50)
        assert config.d_model == 400          # word + char-CNN filters + POS
        assert config.decoder_dim == 512      # 2 directions x d_h
        assert config.r == 4 and config.d_h == 256

    def test_optimizer_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == 0.001
        assert config.decay_rate == 0.75
        assert config.batch_size == 64
        assert (config.p_in, config.p_rnn, config.p_out) == (0.5, 0.5, 0.5)


class TestValidation:
    def test_head_count_must_divide_d_model(self):
        with pytest.raises(ValueError, match="divisible"):
            TrainConfig(r=3)  # 400 % 3 != 0

    def test_bad_enums(self):
        with pytest.raises(ValueError, match="attention_scale"):
            TrainConfig(attention_scale="none")
        with pytest.raises(ValueError, match="child_order"):
            TrainConfig(child_order="random")

    def test_dropout_range(self):
        with pytest.raises(ValueError, match="p_rnn"):
            TrainConfig(p_rnn=1.0)
        TrainConfig(p_rnn=0.0)  # boundary is legal

    def test_zero_epochs_legal_negative_not(self):
        assert TrainConfig(max_epochs=0).max_epochs == 0
        with pytest.raises(ValueError, match="max_epochs"):
            TrainConfig(max_epochs=-1)

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(decay_patience=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)


class TestReplaced:
    def test_returns_modified_copy(self):
        base = TrainConfig()
        other = base.replaced(d_h=32, seed=9)
        assert other.d_h == 32 and other.seed == 9
        assert base.d_h == 256

    def test_revalidates(self):
        with pytest.raises(ValueError, match="divisible"):
            TrainConfig().replaced(num_filters=49)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TrainConfig().d_w = 10


class TestFlatText:
    def test_round_trip_defaults(self):
        config = TrainConfig()
        assert TrainConfig.from_flat(config.to_flat()) == config

    def test_round_trip_modified(self):
        config = TrainConfig(d_w=32, single_root=True, learning_rate=3e-4,
                             child_order="right2left", max_epochs=0)
        again = TrainConfig.from_flat(config.to_flat())
        assert again == config
        assert again.single_root is True
        assert again.learning_rate == 3e-4

    def test_floats_survive_exactly(self):
        flat = TrainConfig(adam_epsilon=1e-8).to_flat()
        assert TrainConfig.from_flat(flat).adam_epsilon == 1e-8

    def test_unknown_key_rejected(self):
        flat = TrainConfig().to_flat()
        flat["momentum"] = "0.9"
        with pytest.raises(ValueError, match="unknown config keys"):
            TrainConfig.from_flat(flat)

    def test_bad_bool_rejected(self):
        flat = TrainConfig().to_flat()
        flat["single_root"] = "yes"
        with pytest.raises(ValueError, match="single_root"):
            TrainConfig.from_flat(flat)


class TestConfigFile:
    def test_file_round_trip(self, tmp_path):
        config = TrainConfig(d_w=32, seed=5)
        path = tmp_path / "parser.cfg"
        config.to_file(path)
        assert TrainConfig.from_file(path) == config

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nd_w=100\n  seed = 3  \n")
        config = TrainConfig.from_file(path)
        assert config.d_w == 100 and config.seed == 3

    def test_partial_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("d_h=64\n")
        config = TrainConfig.from_file(path)
        assert config.d_h == 64 and config.d_w == 300

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("d_w=100\nnot a setting\n")
        with pytest.raises(ValueError, match="line 2"):
            TrainConfig.from_file(path)


class TestConfigErrors:
    def test_value_that_does_not_parse_names_key_and_value(self):
        flat = TrainConfig().to_flat()
        flat["d_h"] = "abc"
        with pytest.raises(ConfigError, match=r"d_h='abc': invalid literal for int\(\)"):
            TrainConfig.from_flat(flat)

    @pytest.mark.parametrize("field", ["r", "d_h", "filter_width", "arc_mlp_dim", "patience"])
    def test_sizes_below_one_name_key_and_value(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be >= 1, got 0"):
            TrainConfig(**{field: 0})

    @pytest.mark.parametrize("field", ["learning_rate", "clip_norm", "beta1", "p_in"])
    def test_non_finite_floats_rejected(self, field):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=field):
                TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value, named", [
        ("decay_rate", -1.0, "decay_rate must be in (0, 1], got -1.0"),
        ("decay_rate", 0.0, "decay_rate must be in (0, 1], got 0.0"),
        ("decay_rate", 1.5, "decay_rate must be in (0, 1], got 1.5"),
        ("beta1", 1.0, "beta1 must be in [0, 1), got 1.0"),
        ("beta1", -0.1, "beta1 must be in [0, 1), got -0.1"),
        ("beta2", 1.5, "beta2 must be in [0, 1), got 1.5"),
        ("adam_epsilon", 0.0, "adam_epsilon must be positive, got 0.0"),
        ("clip_norm", -1.0, "clip_norm must be positive, got -1.0"),
        ("clip_norm", 0.0, "clip_norm must be positive, got 0.0"),
    ])
    def test_optimizer_ranges_name_key_and_value(self, field, value, named):
        with pytest.raises(ConfigError) as info:
            TrainConfig(**{field: value})
        assert str(info.value) == named

    def test_range_edges_accepted(self):
        config = TrainConfig(decay_rate=1.0, beta1=0.0, beta2=0.0)
        assert (config.decay_rate, config.beta1, config.beta2) == (1.0, 0.0, 0.0)

    def test_non_utf8_file_names_the_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"d_w=6\n\xff=1\n")
        with pytest.raises(ConfigError, match="config line 2: invalid UTF-8 byte 0xff"):
            TrainConfig.from_file(path)

    def test_bad_file_line_is_a_config_error(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("not a setting\n")
        with pytest.raises(ConfigError, match="line 1"):
            TrainConfig.from_file(path)

    def test_architecture_mismatch_is_a_config_error(self):
        assert issubclass(ArchitectureMismatch, ConfigError)
        assert issubclass(ConfigError, ValueError)


_VALUES = st.one_of(
    st.text(max_size=10),
    st.integers(-3, 900).map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "false", *CHILD_ORDERS, *ATTENTION_SCALES]),
    st.sampled_from(["-1", "0", "0.0", "1", "1.0", "1.5", "0.5", "-0.0"]),
)


def assert_ranges_hold(config):
    """The ranges that make training well defined, for a config that built."""
    assert 0.0 < config.decay_rate <= 1.0
    assert 0.0 <= config.beta1 < 1.0 and 0.0 <= config.beta2 < 1.0
    assert config.adam_epsilon > 0.0 and config.clip_norm > 0.0
    assert config.learning_rate > 0.0


@given(st.dictionaries(st.one_of(st.sampled_from(FIELDS), st.text(max_size=8)), _VALUES,
                       max_size=4))
@example({"decay_rate": "-1"})
@example({"beta2": "1.5"})
@example({"adam_epsilon": "0"})
@example({"clip_norm": "-1"})
@settings(max_examples=300, deadline=None)
def test_random_flat_values_build_or_raise_config_error(changes):
    flat = TrainConfig().to_flat()
    flat.update(changes)
    try:
        config = TrainConfig.from_flat(flat)
    except ConfigError:
        return
    assert_ranges_hold(config)
    assert TrainConfig.from_flat(config.to_flat()) == config
