"""Run every benchmark workload plan and keep everything it writes.

    python tools/plan_outputs.py ROOT OUTDIR [--seed N]

ROOT is a checkout of this repository.  Its `perfbench/workloads.py`
gives the plans (full sizes) and its `src/` the `mudk` package that runs
them, command by command, through `mudk.cli.main`.  The commands of the
workload W run in OUTDIR/W, which must not exist yet, so the files they
write land there; OUTDIR/W/commands.txt records each command line, its
exit code and its stdout.  Two checkouts write the same bytes exactly
when

    python tools/plan_outputs.py PARENT out_parent --seed 3
    python tools/plan_outputs.py CHANGE out_change --seed 3
    diff -r out_parent out_change

prints nothing.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import redirect_stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", help="checkout whose src/ and perfbench/ to run")
    parser.add_argument("outdir", help="directory for the outputs (created)")
    parser.add_argument("--seed", type=int, default=3,
                        help="seed of every simulate command (default 3)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from mudk import cli
    from workloads import WORKLOADS, plan

    for workload in WORKLOADS:
        where = os.path.join(args.outdir, workload)
        os.makedirs(where)
        log = []
        cwd = os.getcwd()
        os.chdir(where)
        try:
            for scenario in plan(workload, args.seed):
                for argv_ in scenario["commands"]:
                    out = io.StringIO()
                    with redirect_stdout(out):
                        code = cli.main(argv_)
                    log.append(f"$ mudk {' '.join(argv_)}\nexit {code}\n{out.getvalue()}")
        finally:
            os.chdir(cwd)
        with open(os.path.join(where, "commands.txt"), "w", newline="\n") as fh:
            fh.write("".join(log))
        print(f"{workload}: {len(log)} commands -> {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
