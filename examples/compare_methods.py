"""Compare NURD against representative baselines on both trace families.

Reproduces a slice of the paper's Table 3: the supervised baseline (GBTR),
an outlier detector (IFOREST), a PU learner (PU-BG), censored regression
(Grabit), the systems baseline (Wrangler), and NURD with and without
calibration.

Run:  python examples/compare_methods.py
"""

from repro.eval import EvaluationConfig, evaluate_all, format_table3
from repro.eval.tuning import tune
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.traces.google import GoogleTraceGenerator

METHODS = ["GBTR", "IFOREST", "PU-BG", "Grabit", "Wrangler", "NURD-NC", "NURD"]
SEED = 42
#: The tuning jobs come from their own generator seed, apart from the
#: evaluated jobs, as in the benchmarks.
TUNING_SEED = SEED + 10_000


def main() -> None:
    results = {}
    for gen_cls, name in [
        (GoogleTraceGenerator, "Google"),
        (AlibabaTraceGenerator, "Alibaba"),
    ]:
        trace = gen_cls(n_jobs=4, task_range=(120, 180), random_state=SEED).generate()
        # The paper tunes each method on 6 jobs per trace and applies the
        # values, fixed, to every evaluated job (§6): tune does that for
        # NURD's (alpha, eps) and Grabit's sigma, on held-out jobs.
        tuning_trace = gen_cls(
            n_jobs=6, task_range=(120, 180), random_state=TUNING_SEED
        ).generate()
        print(f"tuning on {name} ({len(tuning_trace)} held-out jobs)...")
        cfg = tune(tuning_trace, EvaluationConfig())
        print(
            f"evaluating {len(METHODS)} methods on {name} "
            f"({len(trace)} jobs, {trace.n_tasks} tasks)..."
        )
        results[name] = evaluate_all(trace, METHODS, cfg)

    print("\n" + format_table3(results))
    print(
        "\nPaper Table 3: NURD has the best F1 on both traces; GBTR misses "
        "most stragglers; Grabit/Wrangler over-flag; NURD-NC trails NURD on "
        "FPR. Tuned on held-out jobs, Grabit leads on Alibaba here "
        '(EXPERIMENTS.md, "Hyperparameter protocol").'
    )


if __name__ == "__main__":
    main()
