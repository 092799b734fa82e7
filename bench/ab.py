#!/usr/bin/env python3
"""Interleaved A/B runs of the end-to-end benchmark between two revisions.

    bench/ab.py --base REV --change REV --workload W --pairs N
        [--seconds S] [--seed N]

Run it from anywhere inside a memlook git checkout. Each revision is
extracted with `git archive` into its own temporary directory (under
$TMPDIR), so neither .git nor the work tree changes; both trees are
removed on exit. The script then alternates `python3 perfbench/run.py
--trace 0` runs between the two trees, N pairs on the same seed, the side
that runs first alternating from pair to pair. Each tree builds its own
benchmark program on its first run.

For each end-to-end metric named in the change's BENCHMARK.json it prints
the median [q1-q3] of each side and the number of pairs the change won,
then the commits each side made per run (from the harness's summary line
on stderr). A workload that commits for a fixed time commits more on a
faster side, and its peak RSS grows with the commit count, so read
peak_rss_mb against that row.
The exit code is 1 when any metric is worse on the change side in a
majority of pairs, 2 when a run fails or answers incorrectly, else 0.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile


def log(msg):
    print("ab: " + msg, file=sys.stderr, flush=True)


def git(*args, **kw):
    return subprocess.run(["git"] + list(args), check=True, **kw)


def extract(rev, dest):
    """Writes the tree of \\p rev into \\p dest with git archive."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % rev)


# The harness's end-of-run summary on stderr: "perfbench: ... N commits, ...".
COMMITS = re.compile(r"^perfbench: .*?(\d+) commits\b", re.MULTILINE)


def run_once(tree, workload, seed, seconds):
    """One untraced perfbench run in \\p tree; returns its parsed result
    with the run's commit count added as result["commits"]."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("perfbench in %s exited %d" % (tree,
                                                          proc.returncode))
    result = json.loads(lines[-1])
    if not result.get("correct", False) or result.get("failed", 0) != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("perfbench in %s answered incorrectly" % tree)
    counts = COMMITS.findall(proc.stderr)
    result["commits"] = int(counts[-1]) if counts else None
    return result


def summary(values):
    """median [q1-q3] of \\p values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="baseline revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = git("rev-parse", "--show-toplevel", stdout=subprocess.PIPE,
               text=True).stdout.strip()
    os.chdir(root)
    revs = {}
    for side in ("base", "change"):
        try:
            revs[side] = git("rev-parse", "--verify", "--quiet",
                             getattr(args, side) + "^{commit}",
                             stdout=subprocess.PIPE,
                             text=True).stdout.strip()
        except subprocess.CalledProcessError:
            parser.error("--%s %s is not a commit" % (side,
                                                     getattr(args, side)))

    # SIGTERM unwinds like Ctrl-C, so the finally clause still cleans up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = tempfile.mkdtemp(prefix="memlook-ab-")
    try:
        trees = {side: os.path.join(work, side) for side in revs}
        for side, rev in revs.items():
            extract(rev, trees[side])
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
            gated = json.load(f)["end_to_end"]

        samples = {side: [] for side in revs}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change",
                                                              "base")
            for side in order:
                log("pair %d/%d: %s (%s)" % (pair + 1, args.pairs, side,
                                             revs[side][:10]))
                samples[side].append(run_once(trees[side], args.workload,
                                              args.seed, args.seconds))
    except (RuntimeError, subprocess.CalledProcessError, OSError) as err:
        log(str(err))
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("workload %s, %d pairs, seed %d, %d s runs: base %s, change %s" %
          (args.workload, args.pairs, args.seed, args.seconds,
           revs["base"][:10], revs["change"][:10]))
    print("%-16s %-30s %-30s %s" % ("metric", "base median [q1-q3]",
                                     "change median [q1-q3]", "change won"))
    regressed = []
    for metric in gated:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [s["metrics"][name]["value"] for s in samples[side]]
                  for side in samples}
        wins = losses = 0
        for b, c in zip(values["base"], values["change"]):
            if c != b:
                if (c < b) == lower:
                    wins += 1
                else:
                    losses += 1
        cells = []
        for side in ("base", "change"):
            med, q1, q3 = summary(values[side])
            cells.append("%.4g [%.4g-%.4g] %s" % (med, q1, q3,
                                                   metric["unit"]))
        print("%-16s %-30s %-30s %d/%d" % (name, cells[0], cells[1], wins,
                                            args.pairs))
        if 2 * losses > args.pairs:
            regressed.append(name)
    commits = {side: [s["commits"] for s in samples[side]
                      if s["commits"] is not None] for side in samples}
    if all(commits.values()):
        cells = ["%.4g [%.4g-%.4g]" % summary(commits[side])
                 for side in ("base", "change")]
        print("%-16s %-30s %-30s %s" % ("commits/run", cells[0], cells[1],
                                        "(not gated)"))
    if regressed:
        print("worse in a majority of pairs: " + ", ".join(regressed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
