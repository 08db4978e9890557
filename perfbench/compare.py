#!/usr/bin/env python3
"""Summarise or compare sets of perfbench runs, with the standard library only.

Each set is a directory of captured standard outputs of run.sh, one file
per run (sweep.sh writes them).

    python3 perfbench/compare.py SET
        Per workload and metric: median, quartiles and spread (the distance
        between the quartiles as a share of the median) against the
        metric's bound. If SET holds traced and untraced runs of a workload,
        also the tracing overhead (traced minus untraced medians).

    python3 perfbench/compare.py BASE NEW
        Per workload and metric: both sides' medians and quartiles, the
        pairs NEW won, the verdict of the 9-of-10-pairs rule, and the
        regression check against the metric's bound.

Runs from different hosts (CPU model, nproc, GOMAXPROCS or Go version) are
flagged: such a comparison is advisory only. So are runs during which more
than 5% of the host's CPU time was stolen by other guests of a shared host.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("cpu", "nproc", "gomaxprocs", "go")
NOISY_STEAL = 0.05


def load_manifest():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        doc = json.load(f)
    metrics = {}
    for m in doc["end_to_end"] + doc["per_layer"]:
        metrics[m["name"]] = m
    # Recorded in each run's record line; compared but not gated.
    for name, unit, direction in (("wall.p50_ms", "ms", "lower"), ("wall.throughput_per_s", "1/s", "higher"),
                                  ("cpu_ms_per_op", "ms", "lower"), ("calibration_ms", "ms", "lower"),
                                  ("setup_wall_s", "s", "lower")):
        metrics[name] = {"name": name, "unit": unit, "better": direction}
    return metrics


def load_set(path):
    """Returns {(workload, traced): [run, ...]} with runs sorted by seed."""
    runs = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if not os.path.isfile(full):
            continue
        with open(full) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        record = next((json.loads(l[len("record "):]) for l in lines if l.startswith("record ")), None)
        if record is None or not lines:
            print(f"skipping {full}: no perfbench result", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        # Ungated figures ride in the record line, compared but not gated.
        result["metrics"].update(record.get("ungated", {}))
        run = {"seed": record["seed"], "host": record["host"], "steal": record.get("steal", 0.0),
               "result": result, "file": name}
        runs.setdefault((record["workload"], record["trace"]), []).append(run)
    for v in runs.values():
        v.sort(key=lambda r: r["seed"])
    return runs


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs if metric in r["result"]["metrics"]]


def quartiles(vals):
    if len(vals) < 2:
        v = vals[0] if vals else float("nan")
        return v, v, v
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / med if med else 0.0


def better(a, b, direction):
    """True when a is better than b."""
    return a < b if direction == "lower" else a > b


def hosts(runs):
    return {tuple(str(r["host"].get(k)) for k in HOST_KEYS) for r in runs}


def correctness(label, runs):
    bad = [r["file"] for r in runs if not r["result"]["correct"]]
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    note = f"  {label}: {len(runs)} runs, {failed} of {attempted} operations failed"
    if bad:
        note += f"; NOT CORRECT: {', '.join(bad)}"
    print(note)
    noisy = [f"{r['file']} ({r['steal']:.0%})" for r in runs if r["steal"] > NOISY_STEAL]
    if noisy:
        print(f"  NOISY: more than {NOISY_STEAL:.0%} of CPU time was stolen by other guests during {', '.join(noisy)}")


def summarise(sets, manifest):
    for (workload, traced), runs in sorted(sets.items()):
        print(f"== {workload} ({'traced' if traced else 'untraced'})")
        correctness("runs", runs)
        if len(hosts(runs)) > 1:
            print("  ADVISORY: runs come from different hosts")
        for name in sorted(runs[0]["result"]["metrics"]):
            vals = values(runs, name)
            q1, med, q3 = quartiles(vals)
            m = manifest.get(name, {})
            line = f"  {name:32s} n={len(vals):2d} median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread(vals):.2%}"
            if "bound" in m:
                ok = spread(vals) < m["bound"] / 3
                line += f" bound {m['bound']:.0%} -> {'steady' if ok else 'NOT within a third of the bound'}"
            print(line)
        other = sets.get((workload, not traced))
        if traced and other:
            for e2e, layer in (("wall.p50_ms", "traced.p50_ms"), ("wall.throughput_per_s", "traced.throughput_per_s"),
                               ("cpu_ms_per_op", "traced.cpu_ms_per_op"),
                               ("cpu_cal_per_op", "traced.cpu_cal_per_op")):
                u = statistics.median(values(other, e2e))
                t = statistics.median(values(runs, layer))
                print(f"  tracing overhead on {e2e}: untraced {u:.6g}, traced {t:.6g} ({(t - u) / u:+.1%})")


def compare(base, new, manifest):
    for key in sorted(set(base) | set(new)):
        workload, traced = key
        a, b = base.get(key, []), new.get(key, [])
        print(f"== {workload} ({'traced' if traced else 'untraced'})")
        if not a or not b:
            print("  only one side has runs of this workload")
            continue
        correctness("base", a)
        correctness("new ", b)
        if len(hosts(a) | hosts(b)) > 1:
            print("  ADVISORY: the runs come from different hosts; the comparison is not evidence")
        by_seed = {r["seed"]: r for r in a}
        if all(r["seed"] in by_seed for r in b):
            pairs = [(by_seed[r["seed"]], r) for r in b]
        else:
            pairs = list(zip(a, b))
        for name in sorted(a[0]["result"]["metrics"]):
            m = manifest.get(name, {"better": "lower"})
            direction = m["better"]
            va, vb = values(a, name), values(b, name)
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            won = lost = 0
            for ra, rb in pairs:
                x = ra["result"]["metrics"][name]["value"]
                y = rb["result"]["metrics"][name]["value"]
                won += better(y, x, direction)
                lost += better(x, y, direction)
            iqr_a = qa[2] - qa[0]
            diff = qb[1] - qa[1]
            if won >= 0.9 * len(pairs) and abs(diff) > iqr_a:
                verdict = "gain"
            elif lost >= 0.9 * len(pairs) and abs(diff) > iqr_a:
                verdict = "loss"
            else:
                verdict = "no claim"
            line = (f"  {name:32s} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                    f"  won {won}/{len(pairs)}  {verdict}")
            if "bound" in m:
                worse = (diff if direction == "lower" else -diff) / qa[1] if qa[1] else 0.0
                all_better = all(better(y, x, direction) for x in va for y in vb)
                if max(spread(va), spread(vb)) > m["bound"] and not all_better:
                    check = "unresolved (spread exceeds bound)"
                elif worse > m["bound"]:
                    check = f"REGRESSION ({worse:+.1%} > {m['bound']:.0%})"
                else:
                    check = f"ok ({worse:+.1%} worse, bound {m['bound']:.0%})"
                line += f"  regression check: {check}"
            print(line)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    manifest = load_manifest()
    sets = [load_set(p) for p in argv[1:]]
    if len(sets) == 1:
        summarise(sets[0], manifest)
    else:
        compare(sets[0], sets[1], manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
