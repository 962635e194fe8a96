import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemqn import ConfigError, EmptyTableError, performance_profile

from _support import _ref_performance_profile

INF = math.inf


class TestHandCases:
    def test_single_solver_all_succeed(self):
        table = performance_profile({"p1": {"s": 3.0}, "p2": {"s": 7.0}})
        assert table.value("s", 1.0) == 1.0
        assert table.value("s", 100.0) == 1.0

    def test_two_solver_hand_table(self):
        table = performance_profile(
            {"p1": {"s1": 1.0, "s2": 2.0}, "p2": {"s1": 2.0, "s2": 2.0}}
        )
        assert table.value("s1", 1.0) == 1.0
        assert table.value("s2", 1.0) == 0.5
        assert table.value("s2", 2.0) == 1.0
        assert list(table.tau_grid) == [1.0, 2.0]

    def test_all_failing_solver_stays_at_zero(self):
        table = performance_profile(
            {"p1": {"ok": 1.0, "bad": INF}, "p2": {"ok": 5.0, "bad": INF}}
        )
        assert table.value("bad", 1e12) == 0.0
        assert table.value("ok", 1.0) == 1.0

    def test_problem_failed_by_everyone(self):
        table = performance_profile({"p1": {"a": 2.0, "b": 4.0}, "p2": {"a": INF, "b": INF}})
        assert table.ratios[("p2", "a")] == INF
        assert table.value("a", 1e12) == 0.5

    def test_missing_entry_counts_as_failure(self):
        table = performance_profile({"p1": {"a": 2.0, "b": 4.0}, "p2": {"a": 3.0}})
        assert table.ratios[("p2", "b")] == INF

    def test_empty_table_rejected(self):
        with pytest.raises(EmptyTableError):
            performance_profile({})

    def test_invalid_cost_rejected(self):
        with pytest.raises(ConfigError):
            performance_profile({"p": {"s": -1.0}})
        with pytest.raises(ConfigError):
            performance_profile({"p": {"s": math.nan}})

    def test_csv_layout(self):
        table = performance_profile({"p1": {"s1": 1.0, "s2": 2.0}})
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "tau,s1,s2"
        assert len(lines) == 1 + len(table.tau_grid)


class TestProperties:
    def _random_table(self, rng):
        n_p = int(rng.integers(1, 9))
        n_s = int(rng.integers(1, 6))
        solvers = [f"s{i}" for i in range(n_s)]
        table = {}
        for p in range(n_p):
            row = {}
            for s in solvers:
                if rng.random() < 0.15:
                    row[s] = INF
                else:
                    row[s] = float(rng.integers(1, 500))
            table[f"p{p}"] = row
        return table

    def test_random_tables_satisfy_profile_invariants(self, count=300):
        rng = np.random.default_rng(777)
        for _ in range(count):
            costs = self._random_table(rng)
            table = performance_profile(costs)
            n_problems = len(table.problems)
            for s in table.solvers:
                curve = table.curves[s]
                assert np.all(np.diff(curve) >= 0.0)
                assert np.all((0.0 <= curve) & (curve <= 1.0))
            for p in table.problems:
                ratios = [table.ratios[(p, s)] for s in table.solvers]
                finite = [r for r in ratios if math.isfinite(r)]
                for r in finite:
                    assert r >= 1.0
                if finite:
                    assert min(finite) == 1.0
            # curve values are exact fractions of the problem count
            for s in table.solvers:
                for v in table.curves[s]:
                    assert (v * n_problems) == int(round(v * n_problems))


_MISSING = object()
# small integers tie often; 0.0, -0.0 and a subnormal make zero and overflowing ratios
_COST = st.one_of(
    st.sampled_from([1.0, 2.0, 3.0, 0.0, -0.0, INF, 5e-324, 1e300, _MISSING]),
    st.floats(0.0, 1e6),
)
_TABLE = st.dictionaries(
    st.sampled_from([f"p{i}" for i in range(8)]),
    st.lists(_COST, min_size=5, max_size=5),
    min_size=1,
)


def _costs(rows, bad=None):
    costs = {p: {f"s{j}": v for j, v in enumerate(row) if v is not _MISSING}
             for p, row in rows.items()}
    if bad is not None:
        p, j, value = bad
        costs[sorted(costs)[p % len(costs)]][f"s{j}"] = value
    return costs


def _outcome(build, costs):
    try:
        return build(costs)
    except (ConfigError, EmptyTableError) as exc:
        return exc


class TestMatchesReference:
    """The matrix build gives the element-by-element reference's table, bit for bit."""

    def _check(self, costs):
        want = _outcome(_ref_performance_profile, costs)
        got = _outcome(performance_profile, costs)
        if isinstance(want, Exception):
            assert type(got) is type(want)
            assert str(got) == str(want)
            return
        assert got.problems == want.problems
        assert got.solvers == want.solvers
        assert got.tau_grid.tobytes() == want.tau_grid.tobytes()
        for s in want.solvers:
            assert got.curves[s].tobytes() == want.curves[s].tobytes()
        assert list(got.ratios.items()) == list(want.ratios.items())
        assert got.to_csv() == want.to_csv()

    @settings(max_examples=300, deadline=None)
    @given(rows=_TABLE)
    def test_valid_tables(self, rows):
        self._check(_costs(rows))

    @settings(max_examples=100, deadline=None)
    @given(rows=_TABLE, p=st.integers(0, 7), j=st.integers(0, 5),
           value=st.sampled_from([-1.0, -5e-324, -INF, math.nan]))
    def test_invalid_entry_message(self, rows, p, j, value):
        self._check(_costs(rows, (p, j, value)))

    @pytest.mark.parametrize("costs", [{"p": {"s": -2.0}}, {"p": {"s": math.nan}},
                                       {"a": {"s": 1.0}, "b": {"s": np.float64(-3.0)}}])
    def test_message_names_a_python_float(self, costs):
        with pytest.raises(ConfigError) as exc:
            performance_profile(costs)
        assert "np.float64" not in str(exc.value)
        assert str(exc.value) == str(_outcome(_ref_performance_profile, costs))
