"""E5 — overall query+update cost tuning (paper §3.2).

Benchmarks the mixed-objective optimizer across the update-fraction sweep
and asserts the trade-off direction: query-heavy mixes choose labels no
wider than update-heavy mixes.
"""

import pytest

from repro.core import tuning

#: the optimizer under benchmark needs the gated scientific stack
pytestmark = pytest.mark.skipif(
    not tuning.HAS_SCIPY_STACK, reason="needs numpy + scipy")

N0 = 1 << 20


@pytest.mark.parametrize("update_fraction", [0.05, 0.5, 0.95])
def test_minimize_overall(benchmark, update_fraction):
    result = benchmark(tuning.minimize_overall_cost, N0, update_fraction,
                       100.0, 32)
    benchmark.extra_info["params"] = result.params.describe()
    benchmark.extra_info["objective"] = round(result.objective, 2)
    benchmark.extra_info["bits"] = round(result.predicted_bits, 1)


def test_tradeoff_direction(benchmark):
    def run():
        query_heavy = tuning.minimize_overall_cost(
            N0, 0.05, comparisons_per_query=100.0, word_bits=32)
        update_heavy = tuning.minimize_overall_cost(
            N0, 0.95, comparisons_per_query=100.0, word_bits=32)
        assert query_heavy.predicted_bits <= \
            update_heavy.predicted_bits + 1e-9
        return update_heavy.predicted_bits - query_heavy.predicted_bits

    spread = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["bits_spread_across_mix"] = round(spread, 1)
