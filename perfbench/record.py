"""Record reference.json: for every benchmark op, its exit code and the
sha256 of its stdout and of every artifact it writes.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record.py

Each op runs once in its own empty output directory.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import oracle
from worker import import_cli, run_op
from workloads import WORKLOADS, op_key

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    cli = import_cli(os.path.join(ROOT, "src"))
    ops = {op_key(op): op for w in WORKLOADS.values() for op in w.ops}
    scratch = os.path.join(ROOT, ".perfbench", "record")
    reference = {}
    for key in sorted(ops):
        out = os.path.join(scratch, str(len(reference)))
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        code, stdout, seconds, _ = run_op(cli, ops[key], out)
        files = {}
        for name in sorted(os.listdir(out)):
            path = os.path.join(out, name)
            if os.path.isfile(path):
                with open(path, "rb") as f:
                    files[name] = oracle.sha256(f.read())
        problems = oracle.check_independent(ops[key], out)
        if code != 0 or problems:
            print(f"{key}: exit {code}, {problems}", file=sys.stderr)
            return 1
        reference[key] = {"exit_code": code, "stdout": oracle.sha256(stdout.encode()), "files": files}
        print(f"{seconds:7.2f} s  {key}  ({len(files)} files)")
    shutil.rmtree(scratch)
    with open(oracle.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
