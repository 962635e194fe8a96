import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riemqn import ConfigError, TransportKind
from riemqn.schema import array_shape, at_least, choice, flag, integer, read_object, real

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


def test_at_least_bounds_an_integer():
    check = at_least(3)
    assert check(3, "k") == 3 and type(check(np.int64(7), "k")) is int
    with pytest.raises(ConfigError, match="k must be at least 3, got 2"):
        check(2, "k")
    with pytest.raises(ConfigError, match="k must be an integer, got 3.0"):
        check(3.0, "k")


def test_array_shape_reads_a_count_or_a_sequence_of_counts():
    assert array_shape(4, "shape") == (4,)
    assert array_shape(np.int64(0), "shape") == (0,)
    assert array_shape([2, np.int32(3)], "shape") == (2, 3)
    assert array_shape((), "shape") == ()
    for bad, named in ((2.5, "shape"), ((2, 2.0), r"shape\[1\]"), ((False,), r"shape\[0\]"),
                       ((1, -1), r"shape\[1\] must be at least 0"), (np.array([2, 3]), "shape"),
                       ("ab", r"shape\[0\]"), (None, "shape")):
        with pytest.raises(ConfigError, match=named):
            array_shape(bad, "shape")


def test_choice_takes_the_value_only():
    check = choice(TransportKind)
    assert check("proj", "k") is TransportKind.PROJECTION
    for bad in ("projection", "PROJ", "PROJECTION", TransportKind.PROJECTION, None, 1):
        with pytest.raises(ConfigError, match=r"k must be one of \['dr', 'invret', 'proj'\]"):
            check(bad, "k")


def test_read_object():
    checks = {"a": integer, "b": real}
    assert read_object({"b": 2, "a": 1}, checks, "thing") == {"a": 1, "b": 2.0}
    assert read_object({}, checks, "thing") == {}
    with pytest.raises(ConfigError, match=r"unknown thing keys: \['c'\] \(accepted: a, b\)$"):
        read_object({"a": 1, "c": 1}, checks, "thing")
    with pytest.raises(ConfigError, match="thing missing keys"):
        read_object({"a": 1}, checks, "thing", required=True)
    with pytest.raises(ConfigError, match="thing must be an object"):
        read_object([("a", 1)], checks, "thing")
