"""Plain-text rendering of the paper's tables and figure series."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


from repro.eval.baselines import METHOD_GROUPS


def format_table3(
    results_by_trace: Mapping[str, Mapping[str, "MethodResult"]],
) -> str:
    """Render Table 3: TPR/FPR/FNR/F1 per method per trace.

    ``results_by_trace`` maps trace name ("Google"/"Alibaba") to the
    per-method results from :func:`repro.eval.harness.evaluate_all`. The best
    F1 per trace is marked with ``*``.
    """
    traces = list(results_by_trace.keys())
    header_cells = ["group", "method"]
    for t in traces:
        header_cells += [f"{t}:TPR", f"{t}:FPR", f"{t}:FNR", f"{t}:F1"]
    lines = ["  ".join(f"{c:>12s}" for c in header_cells)]

    best_f1 = {
        t: max(r.f1 for r in results_by_trace[t].values()) for t in traces
    }
    for group, methods in METHOD_GROUPS.items():
        for m in methods:
            if not all(m in results_by_trace[t] for t in traces):
                continue
            cells = [f"{group[:12]:>12s}", f"{m:>12s}"]
            for t in traces:
                r = results_by_trace[t][m]
                star = "*" if abs(r.f1 - best_f1[t]) < 1e-12 else " "
                cells += [
                    f"{r.tpr:>12.2f}",
                    f"{r.fpr:>12.2f}",
                    f"{r.fnr:>12.2f}",
                    f"{r.f1:>11.2f}{star}",
                ]
            lines.append("  ".join(cells))
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[float]],
    x_values: Iterable,
    x_label: str = "x",
    value_fmt: str = "{:6.2f}",
) -> str:
    """Render one line per method over a common x grid (Figures 2–9)."""
    xs = list(x_values)
    header = f"{x_label:>10s} " + " ".join(f"{str(x):>7s}" for x in xs)
    lines = [header]
    for name, values in series.items():
        vals = list(values)
        if len(vals) != len(xs):
            raise ValueError(
                f"series {name!r} has {len(vals)} points for {len(xs)} x values."
            )
        row = f"{name:>10s} " + " ".join(
            f"{value_fmt.format(v):>7s}" for v in vals
        )
        lines.append(row)
    return "\n".join(lines)

