"""Figures 4 and 5: JCT reduction with unlimited machines (Algorithm 2).

Reproduction target: NURD is at or near the top of the reduction ranking on
both traces (its early, accurate flags translate into completion-time wins),
and reductions are positive for reasonable predictors.
"""


from conftest import CORE_METHODS
from repro.eval import jct_reduction_table


def _jct_unlimited(all_results, trace_name, benchmark):
    results = {m: all_results[m] for m in CORE_METHODS}
    table = benchmark.pedantic(
        lambda: jct_reduction_table(results, machine_counts=None, random_state=1),
        rounds=1,
        iterations=1,
    )
    print(f"\nJCT reduction, unlimited machines ({trace_name}):")
    for m in CORE_METHODS:
        print(f"  {m:8s} {table[m]['unlimited']:6.1f}%")
    return {m: table[m]["unlimited"] for m in CORE_METHODS}


def test_fig4_jct_unlimited_google(google_results, benchmark):
    red = _jct_unlimited(google_results, "google", benchmark)
    assert red["NURD"] > 0.0
    ranked = sorted(red, key=red.get, reverse=True)
    assert "NURD" in ranked[:3], f"NURD rank: {ranked.index('NURD') + 1}"


def test_fig5_jct_unlimited_alibaba(alibaba_results, benchmark):
    red = _jct_unlimited(alibaba_results, "alibaba", benchmark)
    assert red["NURD"] > 0.0
    ranked = sorted(red, key=red.get, reverse=True)
    assert "NURD" in ranked[:3], f"NURD rank: {ranked.index('NURD') + 1}"
