"""Print, for each workload, the sha256 of a fresh training history.

    python3 perfbench/digest.py --seed 1

Each line is ``<workload> <sha256>``: the first training command of that
workload's run for the seed, digested over its ``epochs.jsonl`` with every
``seconds`` field removed. A refactor that must keep training histories
bit-identical prints the same lines on the parent commit and on the
change. Nothing is stored; compare the two outputs.
"""

import argparse
import hashlib
import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if run.program_src() is None:
        return 2
    for name, wl in WORKLOADS.items():
        job = run.Run(wl, args.seed, 30, traced=False, work=run.OUT / "digest" / name)
        data, _ = job.training_file(0)
        out = job.work / "run0"
        if job.call(wl.train_argv(data, job.trainer_seed(0), out)) != 0:
            print(f"{name}: training failed: {job.failures[-1]}", file=sys.stderr)
            return 1
        history = "".join(json.dumps(rec, sort_keys=True) + "\n"
                          for rec in run.epochs_without_seconds(out / "epochs.jsonl"))
        print(f"{name} {hashlib.sha256(history.encode('utf-8')).hexdigest()}")
        shutil.rmtree(job.work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
