"""Figures 2 and 3: streaming F1 at normalized time checkpoints.

Reproduction target: NURD's curve dominates the other methods through most
of the job lifetime (it identifies stragglers earlier), and every curve is
non-decreasing (flags are cumulative). On Alibaba, NURD's lead is a strict
xfail under held-out tuning.
"""

import numpy as np

from conftest import CORE_METHODS, UNREPRODUCED_ON_ALIBABA
from repro.eval import format_series, streaming_f1_curve


def _streaming(all_results, benchmark):
    results = {m: all_results[m] for m in CORE_METHODS}
    curves = benchmark.pedantic(
        lambda: streaming_f1_curve(results, n_points=10), rounds=1, iterations=1
    )
    xs = [round(x, 1) for x in np.linspace(0.1, 1.0, 10)]
    print("\n" + format_series(curves, xs, x_label="norm. time"))
    return curves


def test_fig2_streaming_google(google_results, benchmark):
    curves = _streaming(google_results, benchmark)
    # NURD leads at the end of the run and its curve is monotone.
    final = {m: c[-1] for m, c in curves.items()}
    assert final["NURD"] >= max(v for m, v in final.items() if m != "NURD") - 0.1
    assert (np.diff(curves["NURD"]) >= -1e-9).all()


def test_fig3_streaming_alibaba(alibaba_results, benchmark):
    curves = _streaming(alibaba_results, benchmark)
    # NURD identifies stragglers before the job ends: its mid-run F1 is a
    # sizable fraction of its final F1.
    mid = curves["NURD"][4]
    assert mid >= 0.3 * curves["NURD"][-1]


@UNREPRODUCED_ON_ALIBABA
def test_fig3_streaming_alibaba_nurd_near_best(alibaba_results, benchmark):
    curves = _streaming(alibaba_results, benchmark)
    final = {m: c[-1] for m, c in curves.items()}
    assert final["NURD"] >= max(v for m, v in final.items() if m != "NURD") - 0.1
