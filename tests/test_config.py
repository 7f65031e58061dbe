import argparse
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentpoison.config import ConfigError, load_config_file, merge_settings, parse_config_text


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_parses_or_raises_config_error(text):
    try:
        values = parse_config_text(text, origin="fuzz.cfg")
    except ConfigError as exc:
        assert str(exc).startswith("fuzz.cfg:")
    else:
        assert all(isinstance(k, str) and k for k in values)


@pytest.mark.parametrize("data, at", [(b"\xff", 0), (b"epochs = 2\nlr = \xe9\n", 16)])
def test_non_utf8_file_is_named(tmp_path, data, at):
    path = tmp_path / "a.cfg"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as exc:
        load_config_file(path)
    assert str(exc.value).startswith(f"{path}: not UTF-8 text: 'utf-8' codec can't decode "
                                     f"byte 0x{data[at]:02x} in position {at}: ")


@dataclass
class _Part:
    steps: int = 1
    rate: float = 0.5
    on: bool = False


@dataclass
class _Ruled:
    steps: int = 1

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")


@dataclass
class _Spanning:
    total: int = 10
    part: int = 5

    def __post_init__(self):
        if not 0 < self.part < self.total:
            raise ValueError(f"part must be in (0, {self.total}), got {self.part}")


def _merge(file_values, fixed=(), **flags):
    parts = [(_Part(), ""), (_Part(), "b_")]
    return merge_settings(parts, "x.cfg", file_values, argparse.Namespace(**flags), fixed)


class TestMergeSettings:
    def test_file_values_are_coerced_per_part(self):
        (a, _), (b, _) = _merge({"steps": "3", "b_rate": "0.25", "b_on": "yes"})
        assert (a, b) == (_Part(steps=3), _Part(rate=0.25, on=True))

    def test_flags_beat_file_values(self):
        (a, _), (b, _) = _merge({"steps": "3", "b_steps": "4"}, steps=7, b_steps=None)
        assert (a.steps, b.steps) == (7, 4)

    def test_fixed_names_keep_the_template_value(self):
        with pytest.raises(ConfigError, match="^x.cfg: key 'b_steps' is fixed by this command$"):
            _merge({"b_steps": "2"}, fixed=("b_steps",))
        _, (b, _) = _merge({}, fixed=("b_steps",), b_steps=9)
        assert b.steps == 1

    def test_origins_name_each_file_key_and_flag(self):
        parts = [(_Part(), ""), (_Part(), "b_")]
        flags = argparse.Namespace(rate=0.1, b_on=True, b_steps=None)
        merged = merge_settings(parts, "x.cfg", {"steps": "3", "b_rate": "0.25"}, flags,
                                flag_names={"b_on": "--on-b"})
        assert [origins for _, origins in merged] == [
            {"steps": "x.cfg: key 'steps'", "rate": "--rate"},
            {"rate": "x.cfg: key 'b_rate'", "on": "--on-b"},
        ]

    @pytest.mark.parametrize("file_values, flags, names, origin", [
        ({"b_steps": "-1"}, {}, None, "x.cfg: key 'b_steps'"),
        ({"b_steps": "3"}, {"b_steps": -1}, None, "--b-steps"),
        ({}, {"b_steps": -1}, {"b_steps": "--steps"}, "--steps"),
    ], ids=["file", "flag", "named-flag"])
    def test_a_rule_error_names_the_value_it_rejects(self, file_values, flags, names, origin):
        parts = [(_Ruled(), "b_")]
        with pytest.raises(ConfigError, match=f"^{origin}: steps must be non-negative, got -1$"):
            merge_settings(parts, "x.cfg", file_values, argparse.Namespace(**flags),
                           flag_names=names)

    @pytest.mark.parametrize("file_values, flags, error", [
        ({}, {"total": 4, "part": 4}, "--part: part must be in (0, 4), got 4"),
        ({"total": "4"}, {"part": 4}, "--part: part must be in (0, 4), got 4"),
        ({}, {"total": 4}, "--total: part must be in (0, 4), got 5"),
        ({"part": "4"}, {"total": 3}, "--total: part must be in (0, 3), got 4"),
    ], ids=["both-flags", "file-then-flag", "default-part", "flag-after-file"])
    def test_a_rule_over_two_fields_names_the_value_that_brings_its_error(
        self, file_values, flags, error
    ):
        # the value named is the one at which the error of the whole set first appears
        with pytest.raises(ConfigError) as exc:
            merge_settings([(_Spanning(), "")], "x.cfg", file_values, argparse.Namespace(**flags))
        assert str(exc.value) == error
