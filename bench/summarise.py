"""Summarise benchmark results across seeds, optionally as a trajectory entry.

Run from the repository root after a set of runs (``bench/run.py`` writes
one ``bench/_out/result-<workload>-seed<n>-trace<t>.json`` per run)::

    python3 bench/summarise.py
    python3 bench/summarise.py --append "label for this commit"

For each workload and end-to-end metric it prints the median, the quartiles
and the spread (interquartile distance over median) across seeds, as
``statistics.quantiles(values, n=4)`` gives them; for per-layer metrics,
the median across traced runs.  ``--append`` adds these figures, with the
environment of the last run, to ``bench/trajectory.json``.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(out_dir):
    runs = {}
    for path in sorted(out_dir.glob("result-*.json")):
        rec = json.loads(path.read_text())
        if rec["size"] == "full":
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    table, env = {}, None
    for (name, trace), recs in sorted(runs.items()):
        entry = table.setdefault(name, {"seeds": {}, "end_to_end": {}, "per_layer": {}})
        entry["seeds"]["trace" if trace else "plain"] = sorted(r["seed"] for r in recs)
        entry.setdefault("failed", 0)
        entry["failed"] += sum(r["failed"] for r in recs)
        env = recs[-1]["env"]
        steps = [r["hmc.steps_per_s"] for r in recs if "hmc.steps_per_s" in r]
        if steps and not trace:
            entry["hmc.steps_per_s"] = {"median": statistics.median(steps), "unit": "1/s", "n": len(steps)}
        for m in recs[0]["metrics"]:
            vals = [x["value"] for r in recs for x in r["metrics"] if x["name"] == m["name"]]
            med = statistics.median(vals)
            row = {"median": med, "unit": m["unit"], "n": len(vals)}
            if not trace:
                q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
                row.update(q1=q[0], q3=q[2], spread=(q[2] - q[0]) / med if med else None)
            entry["per_layer" if trace else "end_to_end"][m["name"]] = row
    return table, env


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(HERE / "_out"))
    parser.add_argument("--append", metavar="LABEL")
    args = parser.parse_args()
    table, env = summarise(Path(args.out))
    for name, entry in table.items():
        print(f"{name}  seeds={entry['seeds']}  failed={entry['failed']}")
        if "hmc.steps_per_s" in entry:
            print(f"  hmc.steps_per_s median {entry['hmc.steps_per_s']['median']:.4g} 1/s (untraced)")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:<14} median {row['median']:.4g} {row['unit']}  "
                  f"q1 {row['q1']:.4g}  q3 {row['q3']:.4g}  spread {row['spread']:.3f}  n={row['n']}")
        for metric, row in entry["per_layer"].items():
            print(f"  {metric:<36} {row['median']:.4g} {row['unit']}")
    if args.append:
        path = HERE / "trajectory.json"
        entries = json.loads(path.read_text()) if path.exists() else []
        entries.append({"label": args.append, "env": env, "workloads": table})
        path.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
