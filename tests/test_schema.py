import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riemqn import ConfigError, TransportKind
from riemqn.schema import choice, flag, integer, read_object, real

NOT_NUMBERS = st.one_of(
    st.text(), st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_integer_accepts_python_and_numpy_ints(v):
    assert integer(v, "k") == v and type(integer(v, "k")) is int
    assert integer(np.int64(v), "k") == v and type(integer(np.int64(v), "k")) is int


@given(st.one_of(st.floats(), NOT_NUMBERS))
def test_integer_rejects_everything_else(v):
    with pytest.raises(ConfigError, match="k must be an integer"):
        integer(v, "k")


@given(st.one_of(st.floats(allow_nan=False), st.integers(min_value=-(2**53), max_value=2**53)))
def test_real_accepts_numbers(v):
    assert real(v, "k") == v and type(real(v, "k")) is float


@given(NOT_NUMBERS)
def test_real_rejects_everything_else(v):
    with pytest.raises(ConfigError, match="k must be a number"):
        real(v, "k")


def test_real_rejects_nan():
    for v in (math.nan, np.float64("nan")):
        with pytest.raises(ConfigError):
            real(v, "k")


@given(st.one_of(st.integers(), st.floats(), NOT_NUMBERS.filter(lambda v: not isinstance(v, bool))))
def test_flag_accepts_only_booleans(v):
    with pytest.raises(ConfigError):
        flag(v, "k")
    assert flag(True, "k") is True and flag(False, "k") is False


def test_choice_takes_value_or_code():
    check = choice(TransportKind, {TransportKind.PROJECTION: "proj"})
    assert check("proj", "k") is TransportKind.PROJECTION
    assert check("projection", "k") is TransportKind.PROJECTION
    for bad in ("PROJ", TransportKind.PROJECTION, None, 1):
        with pytest.raises(ConfigError):
            check(bad, "k")


def test_read_object():
    checks = {"a": integer, "b": real}
    assert read_object({"b": 2, "a": 1}, checks, "thing") == {"a": 1, "b": 2.0}
    assert read_object({}, checks, "thing") == {}
    with pytest.raises(ConfigError, match="unknown thing keys"):
        read_object({"a": 1, "c": 1}, checks, "thing")
    with pytest.raises(ConfigError, match="thing missing keys"):
        read_object({"a": 1}, checks, "thing", required=True)
    with pytest.raises(ConfigError, match="thing must be an object"):
        read_object([("a", 1)], checks, "thing")
