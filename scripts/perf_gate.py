#!/usr/bin/env python3
"""Paired performance gate: this checkout against BASE_REF, on every workload
of BENCHMARK.json.

Usage, from the root of a checkout:

    python3 scripts/perf_gate.py BASE_REF

BASE_REF is checked out as a detached git worktree in a temporary directory
outside the repository, and removed again on every exit path. For each
workload the gate runs PAIRS pairs of

    python3 perfbench/run.py --workload W --seed i --seconds SECONDS --trace 0

one run in the base checkout and one in this one, alternating which side goes
first. Each checkout builds into its own .bench_build. The gate fails (exit 1)
when a run exits non-zero, when a run's last line is not a result or reports
"correct": false, or when an end-to-end metric is worse than its bound in the
median per-pair ratio and worse in at least MIN_WORSE of the PAIRS pairs.
"Worse" follows the metric's "better" in BENCHMARK.json. The table goes to
standard output; progress goes to standard error. Exit 2 is a usage error.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

PAIRS = 5
# Not less: a sat_sweep search takes up to 0.7 s of wall clock on a slow
# 2-vCPU host, and a run needs at least 11 of them for its tail percentile,
# or it exits 1 without a result.
SECONDS = 10
# A metric fails only when the change reads worse in this many of the PAIRS
# pairs: one noisy pair can neither fail the gate nor hide a real slowdown.
MIN_WORSE = 4

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_result(run):
    """Returns (result, None) for a good run or (None, why) for a failed one.

    `run` is (exit code, standard output) of one perfbench run.
    """
    code, stdout = run
    if code != 0:
        return None, "exited %d" % code
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return None, "last line is not a result"
    if result.get("correct") is not True:
        return None, 'result says "correct": false'
    return result, None


def worse_by(metric, base, head):
    """The change from base to head as a fraction, positive when worse."""
    if base == head:
        return 0.0
    if base == 0:
        change = float("inf")
    else:
        change = head / base - 1.0
    return change if metric["better"] == "lower" else -change


def decide(end_to_end, pairs):
    """The gate's decision for one workload.

    `end_to_end` is BENCHMARK.json's list of end-to-end metrics; `pairs` is a
    list of (base run, head run), each run as read_result takes it. Returns
    (passed, rows, problems): one row per metric
    (name, base median, head median, median change, pairs worse, verdict),
    and one line per failed run.
    """
    problems = []
    results = []
    for i, pair in enumerate(pairs):
        sides = []
        for side, run in zip(("base", "head"), pair):
            result, why = read_result(run)
            if why:
                problems.append("pair %d: %s run %s" % (i + 1, side, why))
            sides.append(result)
        results.append(sides)
    if problems:
        return False, [], problems
    rows = []
    passed = True
    for metric in end_to_end:
        name = metric["name"]
        try:
            values = [[side["metrics"][name]["value"] for side in pair] for pair in results]
        except (KeyError, TypeError):
            problems.append("%s: missing from a result" % name)
            passed = False
            continue
        changes = [worse_by(metric, base, head) for base, head in values]
        median = statistics.median(changes)
        worse = sum(1 for c in changes if c > 0)
        regressed = median > metric["bound"] and worse >= MIN_WORSE
        passed = passed and not regressed
        rows.append((
            name,
            statistics.median(base for base, _ in values),
            statistics.median(head for _, head in values),
            median,
            worse,
            "REGRESSION" if regressed else "ok",
        ))
    return passed, rows, problems


def perfbench(checkout, workload, seed):
    """Runs one perfbench workload in `checkout`; returns (exit code, stdout)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ)
    # Each checkout builds into its own default .bench_build.
    env.pop("CARGO_TARGET_DIR", None)
    done = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def gate(base):
    """Runs every workload in pairs; prints the table; returns the exit code."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failed = False
    print("%-13s %-12s %12s %12s %9s %7s %7s  verdict"
          % ("workload", "metric", "base", "head", "change", "worse", "bound"))
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            runs = {}
            for side in order:
                sys.stderr.write("perf_gate: %s pair %d/%d: %s\n"
                                 % (workload, i + 1, PAIRS, side))
                runs[side] = perfbench(base if side == "base" else ROOT, workload, i + 1)
            pairs.append((runs["base"], runs["head"]))
        passed, rows, problems = decide(bench["end_to_end"], pairs)
        failed = failed or not passed
        for name, base_med, head_med, change, worse, verdict in rows:
            print("%-13s %-12s %12.5g %12.5g %+8.1f%% %5d/%d %6.0f%%  %s"
                  % (workload, name, base_med, head_med, 100 * change, worse, PAIRS,
                     100 * bounds[name], verdict))
        for problem in problems:
            print("%-13s %s  FAILED" % (workload, problem))
        sys.stdout.flush()
    print("perf_gate: %s" % ("FAILED" if failed else "passed"))
    return 1 if failed else 0


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.stderr.write("usage: python3 scripts/perf_gate.py BASE_REF\n")
        return 2
    try:
        commit = git("rev-parse", "--verify", "--quiet", sys.argv[1] + "^{commit}")
    except subprocess.CalledProcessError:
        sys.stderr.write("perf_gate: %r is not a commit\n" % sys.argv[1])
        return 2
    # SIGTERM unwinds like Ctrl-C, so the finally below removes the worktree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = tempfile.mkdtemp(prefix="perf-gate-")
    base = os.path.join(scratch, "base")
    try:
        git("worktree", "add", "--detach", "--quiet", base, commit)
        sys.stderr.write("perf_gate: base %s in %s\n" % (commit, base))
        return gate(base)
    finally:
        # Deleting the directory and pruning drops the worktree, even one
        # that `worktree add` left half made.
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"])


if __name__ == "__main__":
    sys.exit(main())
