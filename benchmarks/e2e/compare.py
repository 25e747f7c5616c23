"""Compare two sets of benchmark result records, or summarize one set.

Compare (each PATH is a record file or a directory of them)::

    python3 benchmarks/e2e/compare.py --base out/parent --head out/change

For every (workload, end-to-end metric) it prints both sets' medians and
quartiles and a verdict against the ``BENCHMARK.json`` bound:

- ``within bound``: the head median is no worse than the base median by
  more than the bound;
- ``regressed``: it is worse by more than the bound;
- ``unresolved``: either set's quartile spread exceeds the bound, so the
  runs cannot tell, unless every head run beats every base run.

It also applies the claim rule: pair runs in the order they finished (run
the two sides alternately), and a gain is claimed only when the head wins at
least 9 of every 10 pairs and the medians differ by more than the base
runs' interquartile distance. Work counts from traced records must repeat
exactly for each (workload, seed, seconds). Exit code 1 on any regression
or count mismatch, 2 on unusable input (such as mixing smoke and full runs).

Summarize (medians and quartiles per workload and metric, smoke and full
scale kept apart, plus the shared record header)::

    python3 benchmarks/e2e/compare.py --summarize out/full out/smoke -o baseline.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from e2e_stats import quartiles, relative_spread  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]

#: A claimed gain must win at least this share of alternating pairs.
CLAIM_WIN_SHARE = 0.9


def load_records(paths: Iterable[str]) -> List[dict]:
    records = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            rec = json.loads(f.read_text())
            if "header" in rec and "metrics" in rec:
                records.append(rec)
    return records


def _better(a: float, b: float, better: str) -> bool:
    """True when ``a`` is strictly better than ``b``."""
    return a < b if better == "lower" else a > b


def verdict(base: Sequence[float], head: Sequence[float], bound: float, better: str) -> dict:
    """Medians, quartiles and the within/regressed/unresolved verdict."""
    bq, hq = quartiles(base), quartiles(head)
    scale = abs(bq[1]) or 1.0
    delta = (hq[1] - bq[1]) / scale
    worse_by = delta if better == "lower" else -delta
    spread = max(relative_spread(base), relative_spread(head))
    every_head_better = all(_better(h, b, better) for h in head for b in base)
    if spread > bound and not every_head_better:
        status = "unresolved"
    elif worse_by > bound:
        status = "regressed"
    else:
        status = "within bound"
    return {
        "base": bq,
        "head": hq,
        "change": delta,
        "spread": spread,
        "status": status,
    }


def claim(base: Sequence[float], head: Sequence[float], better: str) -> dict:
    """The pair rule: head wins >= 90% of pairs and beats the base IQR."""
    pairs = list(zip(base, head))
    wins = sum(_better(h, b, better) for b, h in pairs)
    bq1, bmed, bq3 = quartiles(base)
    hmed = quartiles(head)[1]
    needed = math.ceil(CLAIM_WIN_SHARE * len(pairs))
    beats_spread = _better(hmed, bmed, better) and abs(hmed - bmed) > (bq3 - bq1)
    return {
        "wins": wins,
        "pairs": len(pairs),
        "gain": bool(pairs) and wins >= needed and beats_spread,
    }


def count_mismatches(records: Sequence[dict]) -> List[str]:
    """Count keys that differ between records of one (workload, seed, seconds)."""
    groups: Dict[tuple, List[dict]] = defaultdict(list)
    for rec in records:
        h = rec["header"]
        if rec.get("counts"):
            groups[(h["workload"], h["seed"], h["seconds"])].append(rec["counts"])
    problems = []
    for key, dicts in sorted(groups.items()):
        names = set().union(*dicts)
        for name in sorted(names):
            seen = {json.dumps(d.get(name)) for d in dicts}
            if len(seen) > 1:
                problems.append(f"{key[0]} seed={key[1]} {name}: {sorted(seen)}")
    return problems


def _scale_of(records: Sequence[dict]) -> set:
    return {bool(r["header"]["smoke"]) for r in records}


def _by_workload(records, trace: int) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = defaultdict(list)
    for rec in sorted(records, key=lambda r: r.get("finished_at", 0)):
        if int(rec["header"]["trace"]) == trace:
            out[rec["header"]["workload"]].append(rec)
    return out


def compare(base_records, head_records, bench: dict) -> int:
    scales = _scale_of(base_records) | _scale_of(head_records)
    if len(scales) > 1:
        print("refusing to compare smoke-scale with full-scale records", file=sys.stderr)
        return 2
    base_w, head_w = _by_workload(base_records, 0), _by_workload(head_records, 0)
    status = 0
    print(f"{'workload':26s} {'metric':22s} {'base q1/med/q3':>32s} "
          f"{'head q1/med/q3':>32s} {'change':>8s} {'spread':>7s}  verdict; claim")
    for workload in sorted(set(base_w) & set(head_w)):
        for m in bench["end_to_end"]:
            name = m["name"]
            base = [r["metrics"][name]["value"] for r in base_w[workload]]
            head = [r["metrics"][name]["value"] for r in head_w[workload]]
            v = verdict(base, head, m["bound"], m["better"])
            c = claim(base, head, m["better"])
            if v["status"] == "regressed":
                status = 1
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(
                f"{workload:26s} {name:22s} {fmt.format(*v['base']):>32s} "
                f"{fmt.format(*v['head']):>32s} {v['change']:+8.2%} "
                f"{v['spread']:7.2%}  {v['status']} (bound {m['bound']:.0%}); "
                f"claim {'yes' if c['gain'] else 'no'} ({c['wins']}/{c['pairs']} pairs)"
            )
    problems = count_mismatches(list(base_records) + list(head_records))
    n_traced = sum(1 for r in list(base_records) + list(head_records) if r.get("counts"))
    if problems:
        status = 1
        print("work counts differ:")
        for p in problems:
            print(f"  {p}")
    else:
        print(f"work counts: identical across {n_traced} traced records")
    return status


def summarize(records: Sequence[dict]) -> dict:
    """Median and quartiles per scale, workload and metric; shared header.

    Untraced records feed ``end_to_end``, traced ones ``per_layer`` and the
    work ``counts`` (per seed); smoke and full scale are kept apart.
    """
    out: dict = {"header": None, "full": {}, "smoke": {}}
    for rec in records:
        h = rec["header"]
        if out["header"] is None:
            out["header"] = {
                k: h[k]
                for k in ("git_sha", "platform", "machine", "python", "numpy",
                          "scipy", "nproc", "blas_threads")
            }
        scale = "smoke" if h["smoke"] else "full"
        entry = out[scale].setdefault(
            h["workload"],
            {"config": dict(h["config"], seconds=h["seconds"]), "seeds": [],
             "runs": 0, "traced_runs": 0, "end_to_end": defaultdict(list),
             "per_layer": defaultdict(list), "counts": {}},
        )
        entry["seeds"].append(h["seed"])
        if int(h["trace"]):
            entry["traced_runs"] += 1
            kind = "per_layer"
            entry["counts"][str(h["seed"])] = rec.get("counts", {})
        else:
            entry["runs"] += 1
            kind = "end_to_end"
        for name, m in rec["metrics"].items():
            entry[kind][name].append((m["value"], m["unit"]))
    for scale in ("full", "smoke"):
        for entry in out[scale].values():
            entry["seeds"] = sorted(set(entry["seeds"]))
            for kind in ("end_to_end", "per_layer"):
                summary = {}
                for name, vals in entry[kind].items():
                    q1, med, q3 = quartiles([v for v, _ in vals])
                    summary[name] = {"median": med, "q1": q1, "q3": q3,
                                     "n": len(vals), "unit": vals[0][1]}
                entry[kind] = summary
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", help="parent result records")
    parser.add_argument("--head", nargs="+", help="change result records")
    parser.add_argument("--summarize", nargs="+", help="records to summarize")
    parser.add_argument("-o", "--output", help="summary JSON path (with --summarize)")
    parser.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    if args.summarize:
        summary = json.dumps(summarize(load_records(args.summarize)), indent=1)
        if args.output:
            Path(args.output).write_text(summary + "\n")
        else:
            print(summary)
        return 0
    if not (args.base and args.head):
        parser.error("give --base and --head, or --summarize.")
    base, head = load_records(args.base), load_records(args.head)
    if not base or not head:
        print("no result records found", file=sys.stderr)
        return 2
    return compare(base, head, json.loads(Path(args.bench).read_text()))


if __name__ == "__main__":
    sys.exit(main())
