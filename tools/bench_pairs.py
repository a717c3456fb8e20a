"""Compare a parent checkout and this tree on one benchmark workload, in pairs.

Runs the unchanged ``bench/run.py`` of each tree alternately, for N pairs,
and switches which side runs first on every pair.  Every run lasts
BENCHMARK.json's ``run_seconds``, the same on both sides.  For each
end-to-end metric of BENCHMARK.json it prints:

- each side's median and quartiles, and the parent's interquartile range;
- the median of the per-pair log ratios ln(change / parent), which cancel
  the drift that both runs of a pair share, and a distribution-free
  confidence interval for it: the widest pair of order statistics whose
  binomial(n, 1/2) coverage is at least 95% (the 2nd smallest to the 2nd
  largest of 10 pairs, 97.85%), with its exact coverage; below six pairs no
  such pair exists and the interval is unbounded;
- the pairs the change won and lost in the better direction (ties count for
  neither) and the exact two-sided sign-test p-value of that split;
- ``gain``: the change won at least nine tenths of the pairs, and the whole
  interval of the median log ratio lies in the better direction beyond
  NOISE_FLOOR, so that the nearer end is above 0 by more than the floor;
- ``worse``: the whole interval lies in the worse direction beyond
  NOISE_FLOOR.

Below six pairs the interval is unbounded, so neither verdict can read
yes; at ten pairs its nearer end beyond the floor needs nine ratios beyond
it.  NOISE_FLOOR = 0.01 is the stated floor on |ln ratio| until an A/A run
measures one per workload and metric.  ``peak_rss_mb`` has moved by up to
about 0.7% in every pair with no change in the work done (heap layout, the
checkout's directory name), which a verdict against the parent's
interquartile range read as ``worse``; that range is still printed.

Copy the parent commit and the change (``git archive`` or ``git clone``)
side by side, for example to ``../parent`` and ``../change``, and run from
the root of the change copy:

    python tools/bench_pairs.py --parent ../parent --workload gaussian-audit \\
        --pairs 10 --seed 9

``--workload`` takes one of BENCHMARK.json's workload names and ``--pairs``
an integer of at least 1; anything else exits 2 before any run.  Nothing
under either tree's ``bench/`` is edited; each run leaves its record in
that tree's ``.bench_runs/``.

The two trees may differ only in their code.  Before any run the tool
exits 2, naming the first of these conditions that fails:

1. Both trees sit in one directory: a worker's metrics moved with the
   directory a tree sits in.
2. Their directory names have equal length: the metrics moved with that
   length alone (an A/A run of equal code in copies named ``parent`` and
   ``aa`` read a throughput ``gain``).
3. Both or neither hold ``src/bosonic_bounds/__pycache__``: each worker
   imports the package from ``src/``, and where bytecode is not written
   (``PYTHONDONTWRITEBYTECODE``) a tree without that cache compiles it in
   every worker, which costs ``setup_s`` and ``peak_rss_mb``; a cache in one
   tree alone would fake a gain for it.
4. ``BENCHMARK.json`` and every file under ``bench/`` (``__pycache__``
   aside) hold equal bytes in both, the first differing path named: the
   comparison times code, not benchmarks.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9
ALPHA = 0.05
NOISE_FLOOR = 0.01
BYTECODE_CACHE = os.path.join("src", "bosonic_bounds", "__pycache__")


def _bytes(path):
    """The bytes of the file at path, or None where there is none."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def mismatch(parent, change):
    """The first reason the two trees could differ in more than their code, else None."""
    parent, change = os.path.abspath(parent), os.path.abspath(change)
    if os.path.dirname(parent) != os.path.dirname(change):
        return (f"{parent} and {change} are not in the same directory; "
                "copy both trees into one so that only their code differs")
    if len(os.path.basename(parent)) != len(os.path.basename(change)):
        return (f"{parent} and {change} have directory names of different "
                "lengths; rename one so that only their code differs")
    cached = [root for root in (parent, change)
              if os.path.isdir(os.path.join(root, BYTECODE_CACHE))]
    if len(cached) == 1:
        return (f"{cached[0]} holds {BYTECODE_CACHE} and the other tree does not; "
                "remove it so both trees compile the package alike")
    paths = {"BENCHMARK.json"}
    for root in (parent, change):
        for folder, subfolders, files in os.walk(os.path.join(root, "bench")):
            subfolders[:] = [name for name in subfolders if name != "__pycache__"]
            paths.update(os.path.relpath(os.path.join(folder, name), root) for name in files)
    for path in sorted(paths):
        if _bytes(os.path.join(parent, path)) != _bytes(os.path.join(change, path)):
            return (f"{path} differs between {parent} and {change}; "
                    "both trees must run the same benchmark")
    return None


def run_bench(root, workload, seed, seconds):
    """One ``bench/run.py`` run in root; returns {metric name: value}."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root}: {result['failed']} of {result['attempted']} operations failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile), interpolating between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def sign_test_p(wins, losses):
    """Exact two-sided sign-test p-value of a split of untied pairs; 1.0 when there is none."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2.0 * tail)


def median_interval(values):
    """(low, high, coverage): order statistics that bracket the median with coverage >= 1 - ALPHA.

    With the values sorted, the k-th smallest and the k-th largest bracket
    the median with probability 1 - 2 P(B < k), B ~ binomial(n, 1/2), for
    any continuous distribution; k is the largest that keeps this at
    1 - ALPHA or more.  With too few values for k = 1, the interval is
    (-inf, inf) with coverage 1.
    """
    n = len(values)
    k, tail = 0, 0.0  # tail = P(B < k)
    while k < n // 2:
        nxt = tail + math.comb(n, k) / 2**n
        if 2.0 * nxt > ALPHA:
            break
        k, tail = k + 1, nxt
    if k == 0:
        return -math.inf, math.inf, 1.0
    ordered = sorted(values)
    return ordered[k - 1], ordered[n - k], 1.0 - 2.0 * tail


def summarize(parent_runs, change_runs, better):
    """Per-metric comparison of paired runs.

    parent_runs and change_runs are lists of {metric: value}, pair i being
    (parent_runs[i], change_runs[i]); better maps each metric to "higher" or
    "lower".  Every value must be positive.  Returns {metric: dict} with both
    sides' quartiles, the median per-pair ln(change / parent) and its
    :func:`median_interval` (low, high, coverage), the wins,
    losses, ties and pairs, the sign-test p-value, the parent's IQR, whether
    a gain may be claimed and whether the change is worse: both verdicts read
    the interval against NOISE_FLOOR.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same positive number of parent and change runs")
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        ratios = [math.log(c / p) for p, c in zip(parent, change)]
        wins = sum(sign * r > 0 for r in ratios)
        losses = sum(sign * r < 0 for r in ratios)
        p_value = sign_test_p(wins, losses)
        p_q = quartiles(parent)
        interval = median_interval(ratios)
        # the interval's ends in the better direction, nearer end first
        near, far = sorted(sign * end for end in interval[:2])
        out[name] = {
            "parent": p_q,
            "change": quartiles(change),
            "log_ratio_median": statistics.median(ratios),
            "log_ratio_interval": interval,
            "wins": wins,
            "losses": losses,
            "ties": len(ratios) - wins - losses,
            "pairs": len(ratios),
            "p_value": p_value,
            "parent_iqr": p_q[2] - p_q[0],
            "gain": wins >= WIN_SHARE * len(ratios) and near > NOISE_FLOOR,
            "worse": far < -NOISE_FLOOR,
        }
    return out


def _fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--workload", required=True,
                        choices=[spec["name"] for spec in benchmark["workloads"]])
    parser.add_argument("--pairs", type=_positive_int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    opts = parser.parse_args(argv)
    better = {spec["name"]: spec["better"] for spec in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    sides = {"parent": os.path.abspath(opts.parent), "change": ROOT}
    reason = mismatch(sides["parent"], sides["change"])
    if reason is not None:
        print(reason, file=sys.stderr)
        return 2
    runs = {"parent": [], "change": []}
    for pair in range(opts.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(sides[side], opts.workload, opts.seed, seconds))
        print(f"pair {pair + 1}/{opts.pairs} done ({' then '.join(order)})", file=sys.stderr)
    summary = summarize(runs["parent"], runs["change"], better)
    print(f"workload {opts.workload}, seed {opts.seed}, {opts.pairs} pairs of "
          f"{seconds:g} s runs; median [first quartile, third quartile]")
    for name, row in summary.items():
        lo, hi, coverage = row["log_ratio_interval"]
        print(f"{name:16s} parent {_fmt(row['parent']):36s} change {_fmt(row['change']):36s} "
              f"ln ratio {row['log_ratio_median']:+.4f} "
              f"[{lo:+.4f}, {hi:+.4f}] ({100 * coverage:.2f}%) "
              f"wins {row['wins']}/{row['pairs']} losses {row['losses']} ties {row['ties']} "
              f"p {row['p_value']:.4g} parent IQR {row['parent_iqr']:.6g} "
              f"gain {'yes' if row['gain'] else 'no'} worse {'yes' if row['worse'] else 'no'}")
    print(json.dumps({"workload": opts.workload, "seed": opts.seed, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
