"""Table 3: TPR/FPR/FNR/F1 for all 23 methods on both traces.

Reproduction target (shape, per the paper):
- NURD attains the best F1 on both trace families;
- NURD-NC keeps a high TPR but a worse FPR than NURD (the calibration
  ablation);
- GBTR misses most stragglers (low TPR — censoring bias);
- PU/flood-prone methods show high TPR with elevated FPR.
"""

from repro.eval import format_table3

# The 23-method replays are the session fixtures ``google_results`` and
# ``alibaba_results`` (conftest.py), shared with the figure benchmarks.


def test_table3_google(google_results, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # timing is in fixtures
    print("\n" + format_table3({"Google": google_results}))
    best = max(google_results, key=lambda m: google_results[m].f1)
    assert best == "NURD", f"expected NURD best on Google, got {best}"
    assert google_results["GBTR"].tpr < 0.5
    assert google_results["NURD"].fpr <= google_results["NURD-NC"].fpr + 1e-9


def test_table3_alibaba(alibaba_results, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\n" + format_table3({"Alibaba": alibaba_results}))
    best = max(alibaba_results, key=lambda m: alibaba_results[m].f1)
    assert best == "NURD", f"expected NURD best on Alibaba, got {best}"
    # Alibaba's 4-feature schema caps everyone below their Google scores on
    # TPR (less of the cause signal is observable).
    assert alibaba_results["NURD"].tpr <= 1.0


def test_table3_paper_vs_measured(google_results, alibaba_results, benchmark):
    """Record the paper-vs-measured comparison rows used by EXPERIMENTS.md."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    paper = {
        "Google": {"NURD": 0.81, "NURD-NC": 0.42, "Grabit": 0.70, "GBTR": 0.57},
        "Alibaba": {"NURD": 0.59, "NURD-NC": 0.37, "PU-BG": 0.57, "GBTR": 0.27},
    }
    measured = {"Google": google_results, "Alibaba": alibaba_results}
    print("\nPaper vs measured (F1):")
    for trace, rows in paper.items():
        for m, pf1 in rows.items():
            mf1 = measured[trace][m].f1
            print(f"  {trace:8s} {m:8s} paper={pf1:.2f} measured={mf1:.2f}")
