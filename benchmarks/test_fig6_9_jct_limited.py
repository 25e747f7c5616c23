"""Figures 6–9: JCT reduction with limited machines (Algorithm 3).

Figures 6–7 sweep the machine count (100–1000); figures 8–9 average over
the sweep. Reproduction target: reductions grow (weakly) with the number of
machines and saturate toward the unlimited-machines value; NURD stays at or
near the top of the averaged ranking.
"""


from repro.eval import jct_reduction_table

MACHINES = [100, 200, 400, 700, 1000]
METHODS = ["GBTR", "KNN", "Grabit", "Wrangler", "NURD-NC", "NURD"]


def _jct_limited(all_results, trace_name, benchmark):
    results = {m: all_results[m] for m in METHODS}
    table = benchmark.pedantic(
        lambda: jct_reduction_table(results, machine_counts=MACHINES, random_state=1),
        rounds=1,
        iterations=1,
    )
    print(f"\nJCT reduction vs machines ({trace_name}):")
    header = "  method   " + " ".join(f"{m:>6d}" for m in MACHINES) + "    avg"
    print(header)
    for m in METHODS:
        row = table[m]["by_machines"]
        cells = " ".join(f"{row[k]:6.1f}" for k in MACHINES)
        print(f"  {m:8s} {cells} {table[m]['avg_limited']:6.1f}")
    return table


def _assert_shape(table):
    for m in METHODS:
        by_m = table[m]["by_machines"]
        vals = [by_m[k] for k in MACHINES]
        # Weak monotonicity: more machines never significantly hurts.
        assert vals[-1] >= vals[0] - 5.0
        # Saturation: the top of the sweep approaches the unlimited value.
        assert abs(vals[-1] - table[m]["unlimited"]) <= max(
            10.0, 0.6 * abs(table[m]["unlimited"])
        )


def test_fig6_fig8_jct_limited_google(google_results, benchmark):
    table = _jct_limited(google_results, "google", benchmark)
    _assert_shape(table)
    avg = {m: table[m]["avg_limited"] for m in METHODS}
    ranked = sorted(avg, key=avg.get, reverse=True)
    assert "NURD" in ranked[:3], f"NURD rank: {ranked.index('NURD') + 1}"


def test_fig7_fig9_jct_limited_alibaba(alibaba_results, benchmark):
    table = _jct_limited(alibaba_results, "alibaba", benchmark)
    _assert_shape(table)
    avg = {m: table[m]["avg_limited"] for m in METHODS}
    ranked = sorted(avg, key=avg.get, reverse=True)
    assert "NURD" in ranked[:3], f"NURD rank: {ranked.index('NURD') + 1}"
