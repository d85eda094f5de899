"""Steadiness study: run sets of seeds and compare their spreads and medians.

Run from the root of a checkout.  One set::

    python3 e2ebench/steadiness.py run --label A --seeds 1-10 \
        --out e2ebench/study/set-A.json [--workloads grid serve-rw]

Compare two sets of the same commit against the bounds in BENCHMARK.json
and write the markdown report::

    python3 e2ebench/steadiness.py compare e2ebench/study/set-A.json \
        e2ebench/study/set-B.json --report e2ebench/STEADINESS.md

The spread of a metric is the distance between the first and third
quartiles of its values (``statistics.quantiles(values, n=4)``) as a share
of their median; the shift is the relative change of the median from the
first set to the second, signed so that positive is worse.  A gated metric
fails when its shift or (``setup_s`` excepted) its spread exceeds its
bound; ``compare`` exits 1 when one fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-b1", "grid", "serve-rw")


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """Run the benchmark once; end-to-end metrics plus printed details."""
    proc = subprocess.run(
        [
            sys.executable,
            "e2ebench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        if line.startswith("detail "):
            # "detail <workload>/<name> = <value> <unit>"
            label, _, rest = line[len("detail "):].partition(" = ")
            values[label.split("/", 1)[1]] = float(rest.split()[0])
    return values


def summarize(values):
    q1, _, q3 = quantiles(values, n=4)
    centre = median(values)
    return {
        "values": values,
        "median": centre,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(centre) if centre else 0.0,
    }


def run_set(args) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    report = {"label": args.label, "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            started = time.perf_counter()
            runs.append(one_run(workload, seed, bench["run_seconds"]))
            print(f"{args.label} {workload} seed {seed}: "
                  f"{time.perf_counter() - started:.1f}s", flush=True)
        report["workloads"][workload] = {
            name: summarize([run[name] for run in runs]) for name in runs[0]
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


def compare(args) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    first, second = (json.loads(Path(p).read_text()) for p in (args.first, args.second))
    rows = [
        f"| workload | metric | set {first['label']} median [q1, q3] | spread "
        f"| set {second['label']} median [q1, q3] | spread | shift | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    ok = True
    for workload, metrics in first["workloads"].items():
        for name, a in metrics.items():
            b = second["workloads"][workload][name]
            meta = bounds.get(name)
            sign = -1.0 if meta and meta["better"] == "higher" else 1.0
            shift = sign * (b["median"] - a["median"]) / abs(a["median"])
            if meta is None:
                verdict, bound = "not gated", "-"
            else:
                bound = f"{meta['bound']:.2f}"
                spread = max(a["spread"], b["spread"]) if name != "setup_s" else 0.0
                if shift > meta["bound"] or spread > meta["bound"]:
                    verdict, ok = "FAIL", False
                elif spread > meta["bound"] / 3:
                    verdict = "within bound; spread above a third of it"
                else:
                    verdict = "ok"
            rows.append(
                f"| {workload} | {name} | {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] "
                f"| {a['spread']:.3f} | {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] "
                f"| {b['spread']:.3f} | {shift:+.3f} | {bound} | {verdict} |"
            )
    table = "\n".join(rows)
    print(table)
    if args.report:
        Path(args.report).write_text(
            Path(args.report).read_text().split("<!-- table -->")[0]
            + "<!-- table -->\n\n" + table + "\n"
            if Path(args.report).exists()
            else table + "\n"
        )
    sys.exit(0 if ok else 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run one set of seeds")
    run_parser.add_argument("--label", required=True)
    run_parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    run_parser.add_argument("--out", required=True)
    run_parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    run_parser.set_defaults(func=run_set)
    cmp_parser = sub.add_parser("compare", help="compare two sets")
    cmp_parser.add_argument("first")
    cmp_parser.add_argument("second")
    cmp_parser.add_argument("--report", help="markdown file to write the table into")
    cmp_parser.set_defaults(func=compare)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
