"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as `run.py` appends them to
`.perfbench_out/runs.jsonl`. For every (workload, metric) the script prints
both medians and quartiles, the change as a share of the base median, the
pairs won, and a verdict:

* worse: for an end-to-end metric, the new median is worse than the base
  median by more than the metric's bound in BENCHMARK.json; for a
  per-layer metric (no bound), by more than the base's quartile spread,
  with at least nine tenths of at least ten pairs lost;
* improved: the new median is better by more than the base's quartile
  spread and the new runs win at least nine tenths of at least ten pairs;
* unresolved: neither. The note says whether the change stayed within the
  bound or the base's own spread is wider than the bound.

Runs are paired by seed when both files share seeds; otherwise every base
run is paired with every new run, and the smaller side's run count stands
for the number of pairs.

Only full-size runs count, and all runs of one file must have measured the
same sources (`source_sha256` in their provenance); a file that mixes them
is refused. Each workload also gets a `failed_ops` row, failed over
attempted operations on each side. When the new side fails a larger share
of its operations, that row reads worse and no metric of the workload reads
improved.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
MIN_PAIRS = 10


class MixedSources(Exception):
    """A file holds runs of more than one version of the sources."""


def load_runs(path) -> tuple[dict, dict]:
    """(workload, metric) -> {seed: [values]}, and workload -> [attempted,
    failed] operations, over the file's full-size runs."""
    runs = defaultdict(lambda: defaultdict(list))
    ops = defaultdict(lambda: [0, 0])
    sources = defaultdict(int)
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            prov = record["provenance"]
            if prov["size"] != "full":
                continue
            sources[prov["source_sha256"]] += 1
            result = record["result"]
            ops[prov["workload"]][0] += result["attempted"]
            ops[prov["workload"]][1] += result["failed"]
            for name, metric in result["metrics"].items():
                runs[(prov["workload"], name)][prov["seed"]].append(metric["value"])
    if len(sources) > 1:
        listed = ", ".join(f"{digest[:12]} ({count} runs)" for digest, count in sources.items())
        raise MixedSources(f"{path} mixes runs of different sources: {listed}")
    return runs, ops


def failed_share(ops) -> float:
    attempted, failed = ops
    return failed / attempted if attempted else 0.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pair_shares(base: dict, new: dict, lower_better: bool) -> tuple[float, float, int]:
    """Shares of pairs the new runs win and lose, and the number of
    independent pairs: common seeds, or the smaller side's run count."""
    common = sorted(set(base) & set(new))
    if common:
        pairs = [(statistics.median(base[s]), statistics.median(new[s])) for s in common]
        count = len(pairs)
    else:
        pairs = [(b, n) for bs in base.values() for b in bs for ns in new.values() for n in ns]
        count = min(sum(map(len, base.values())), sum(map(len, new.values())))
    sign = 1 if lower_better else -1
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) > 0)
    return wins / len(pairs), losses / len(pairs), count


def verdict(spec: dict, base: dict, new: dict, more_failures: bool) -> dict:
    lower_better = spec["better"] == "lower"
    base_values = [v for vs in base.values() for v in vs]
    new_values = [v for vs in new.values() for v in vs]
    b1, bm, b3 = quartiles(base_values)
    n1, nm, n3 = quartiles(new_values)
    spread = (b3 - b1) / abs(bm) if bm else 0.0
    if bm:
        change = (nm - bm) / abs(bm)
    else:
        change = 0.0 if nm == bm else float("inf") * (1 if nm > bm else -1)
    worse_by = change if lower_better else -change
    wins, losses, pairs = pair_shares(base, new, lower_better)
    bound = spec.get("bound")
    if bound is not None and worse_by > bound:
        label, note = "worse", f"worse than bound {bound:.0%}"
    elif pairs < MIN_PAIRS:
        label, note = "unresolved", f"{pairs} pairs, {MIN_PAIRS} needed"
    elif bound is None and worse_by > spread and losses >= WIN_SHARE:
        label, note = "worse", "beyond base spread"
    elif -worse_by > spread and wins >= WIN_SHARE and more_failures:
        label, note = "unresolved", "better, but the new runs fail more ops"
    elif -worse_by > spread and wins >= WIN_SHARE:
        label, note = "improved", "beyond base spread"
    elif bound is not None and spread > bound:
        label, note = "unresolved", f"base spread {spread:.1%} > bound {bound:.0%}"
    elif bound is not None:
        label, note = "unresolved", f"within bound {bound:.0%}"
    else:
        label, note = "unresolved", "within base spread"
    return {"base": (b1, bm, b3, len(base_values)), "new": (n1, nm, n3, len(new_values)),
            "change": change, "spread": spread, "wins": wins, "pairs": pairs,
            "verdict": label, "note": note}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two files of benchmark runs.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    try:
        (base, base_ops), (new, new_ops) = load_runs(args.base), load_runs(args.new)
    except MixedSources as error:
        parser.error(str(error))
    print(f"{'workload':10s} {'metric':34s} {'base median [q1, q3] (n)':38s} "
          f"{'new median [q1, q3] (n)':38s} {'change of base median':28s} "
          f"{'pairs won':10s} verdict")
    more_failures = {}
    for workload in sorted(set(base_ops) & set(new_ops)):
        b, n = failed_share(base_ops[workload]), failed_share(new_ops[workload])
        more_failures[workload] = n > b
        label = "worse" if n > b else "unresolved"
        base_text = f"{base_ops[workload][1]} of {base_ops[workload][0]} ops"
        new_text = f"{new_ops[workload][1]} of {new_ops[workload][0]} ops"
        print(f"{workload:10s} {'failed_ops':34s} {base_text:38s} {new_text:38s} "
              f"{f'{b:.2%} -> {n:.2%} failed':28s} {'':10s} {label}")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        spec = specs.get(name)
        if spec is None:
            continue
        row = verdict(spec, base[key], new[key], more_failures.get(workload, False))
        b1, bm, b3, bn = row["base"]
        n1, nm, n3, nn = row["new"]
        base_text = f"{bm:.5g} [{b1:.5g}, {b3:.5g}] ({bn})"
        new_text = f"{nm:.5g} [{n1:.5g}, {n3:.5g}] ({nn})"
        change_text = f"{row['change']:+.1%} of {bm:.5g} {spec['unit']}"
        pairs_text = f"{row['wins']:.0%} of {row['pairs']}"
        print(f"{workload:10s} {name:34s} {base_text:38s} {new_text:38s} "
              f"{change_text:28s} {pairs_text:10s} {row['verdict']} ({row['note']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
