#!/usr/bin/env python3
"""Archive every full-mode bench JSON and print verdicts against history.

Each bench binary writes BENCH_<bench>.json (bench/bench_table.hpp). This
script files a copy of every BENCH_*.json at the repo root under
bench/history/<bench>_<key>.json, stamped with the commit the run was
built on (`git rev-parse HEAD`), so the repo carries its own performance
trajectory.

Before archiving, it prints a verdict for every row and measured column
against the previous snapshot of the same bench (the highest key in
natural order, so digits compare as numbers: x9 < x10):

    better / worse   the medians differ by more than the previous
                     snapshot's interquartile range, in the column's
                     direction (lower- or higher-is-better)
    within spread    they differ by no more than that
    no spread on record
                     the previous row predates per-cell quartiles

Usage:
    scripts/snapshot_bench.py <key>     -> bench/history/<bench>_<key>.json

Refuses quick-mode runs and existing snapshot names (history is
append-only).
"""

import json
import pathlib
import re
import subprocess
import sys

HEADER_KEYS = ("bench", "hardware_threads", "build_type", "quick", "reps",
               "columns")


def natural_key(path):
    return [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", path.name)]


def rows_of(doc, table):
    rows = doc.get(table, [])
    return [rows] if isinstance(rows, dict) else rows  # pre-table objects


def verdicts(bench, cur, prev, prev_name):
    print(f"{bench}: against {prev_name}")
    for table, roles in cur["columns"].items():
        keys = [c for c, role in roles.items() if role == "key"]
        measured = [c for c, role in roles.items() if role != "key"]
        before = {tuple(r.get(k) for k in keys): r for r in rows_of(prev, table)}
        for row in rows_of(cur, table):
            ident = tuple(row.get(k) for k in keys)
            label = " ".join([table] + [f"{k}={v}" for k, v in zip(keys, ident)])
            old = before.get(ident)
            for col in measured:
                now = row.get(col)
                was = None if old is None else old.get(col)
                if now is None or was is None:
                    verdict = "no previous value" if now is not None else "failed"
                    print(f"  {label} {col}: {was} -> {now} {verdict}")
                    continue
                q1, q3 = old.get(col + "_q1"), old.get(col + "_q3")
                if q1 is None or q3 is None:
                    verdict = "no spread on record"
                elif abs(now - was) <= q3 - q1:
                    verdict = "within spread"
                else:
                    lower_better = roles[col] == "lower"
                    verdict = "better" if (now < was) == lower_better else "worse"
                print(f"  {label} {col}: {was:.6g} -> {now:.6g} {verdict}")


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.stderr.write(__doc__)
        return 2
    key = sys.argv[1]
    repo = pathlib.Path(__file__).resolve().parent.parent
    history = repo / "bench" / "history"
    sources = sorted(repo.glob("BENCH_*.json"))
    if not sources:
        sys.stderr.write(f"no BENCH_*.json in {repo}\n")
        return 1

    runs = []
    for source in sources:
        try:
            doc = json.loads(source.read_text())
        except json.JSONDecodeError as err:
            sys.stderr.write(f"{source} is not valid JSON: {err}\n")
            return 1
        missing = [k for k in HEADER_KEYS if k not in doc]
        if missing:
            sys.stderr.write(f"{source} missing header keys: {missing}\n")
            return 1
        if doc["quick"]:
            sys.stderr.write(
                f"{source} is a quick-mode run; snapshots archive full mode "
                "only (rerun the bench without CRAC_BENCH_QUICK)\n")
            return 1
        dest = history / f"{doc['bench']}_{key}.json"
        if dest.exists():
            sys.stderr.write(
                f"{dest} already exists; history is append-only "
                "(pick a new key)\n")
            return 1
        runs.append((source, doc, dest))

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo,
                            capture_output=True, text=True,
                            check=True).stdout.strip()
    for _, doc, _ in runs:
        bench = doc["bench"]
        previous = sorted(history.glob(f"{bench}_*.json"), key=natural_key)
        if previous:
            verdicts(bench, doc, json.loads(previous[-1].read_text()),
                     previous[-1].name)
        else:
            print(f"{bench}: first snapshot, nothing to compare")
    history.mkdir(parents=True, exist_ok=True)
    for source, _, dest in runs:
        text = source.read_text()
        dest.write_text(text.replace("{\n", f'{{\n  "commit": "{commit}",\n', 1))
        print(f"archived {source.name} -> {dest.relative_to(repo)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
