#!/usr/bin/env python3
"""Repository benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload grid-cold|fig5 \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds `perfbench/` (its own cargo
workspace, into $CARGO_TARGET_DIR, default `.bench_build`), times the
workload's set-up, runs it as a closed loop for S seconds in a child
process whose peak resident set is read back from `wait4`, checks the
outputs against `perfbench/reference/`, and prints
`{"correct", "attempted", "failed", "metrics"}` as the last stdout line:
the end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`. Exits 1 when a check failed and 2 when the benchmark could
not run (no result line then).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import metrics  # noqa: E402

# Set-up repetitions per workload, a few seconds of each: the set-ups are
# mostly memory-bound trace generation, which runs up to 1.5x slower while
# the host is busy, so their median needs many samples.
SETUP_REPS = {"grid-cold": 150, "fig5": 50}
# Budget for set-up plus measurement, after the build.
CHILD_BUDGET_S = 170.0


class Failure(Exception):
    """The benchmark could not produce a result."""


def build():
    """Build the benchmark binary; return its path."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml"]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise Failure("build failed")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"


def run_child(cmd, out_path, deadline):
    """Run `cmd` with stdout to `out_path`; return its last stdout line as
    JSON and its peak resident set (KiB)."""
    with open(out_path, "w") as out:
        child = subprocess.Popen([str(c) for c in cmd], stdout=out)
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            child.kill()
            os.wait4(child.pid, 0)
            child.returncode = -9
            raise Failure(f"{cmd[1]} timed out")
        time.sleep(0.02)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise Failure(f"{cmd[1]} exited with {child.returncode}")
    lines = Path(out_path).read_text().splitlines()
    if not lines:
        raise Failure(f"{cmd[1]} printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss


def run(args):
    binary = build()
    deadline = time.monotonic() + CHILD_BUDGET_S
    work = Path(".bench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        common = ["--workload", args.workload, "--seed", args.seed, "--work", work]
        setup, _ = run_child([binary, "setup", *common, "--reps", SETUP_REPS[args.workload]],
                             work / "setup.out", deadline)
        measured, rss_kb = run_child(
            [binary, "measure", *common, "--seconds", args.seconds, "--trace", args.trace],
            work / "measure.out", deadline)
        if args.workload == "fig5":
            tally = checks.check_fig5(measured["outputs"])
        else:
            tally = checks.check_grid(measured["artifact"], args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    inner = measured["checks"]
    attempted = inner["attempted"] + tally.attempted
    failed = inner["failed"] + tally.failed
    for message in inner["messages"] + tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    if args.trace:
        checked = {"attempted": attempted, "failed": failed, "max_rel_err": tally.max_rel_err}
        values = metrics.per_layer(measured, checked)
        names = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(measured, setup, rss_kb)
        names = metrics.END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.render(values, names),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except (Failure, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
