#!/usr/bin/env python3
"""Check that the benchmark's output checks catch wrong output.

    python3 perfbench/check_checker.py

Run from the root of a source checkout.  Builds three copies of it under
``.bench_build/mutants/`` and runs the benchmark in each:

- ``digest``: one recorded digest is perturbed, so ``mixing-deep`` must
  report a failed command and exit nonzero;
- ``identity-sampler``: the ``inverse`` sampler always returns the identity,
  so ``sampling`` must report failed commands and exit nonzero;
- ``bare``: only BENCHMARK.json and perfbench/, so the benchmark must exit
  nonzero without printing a result.

Exits 0 when all three behave so.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

MUTANTS = run.BUILD / "mutants"
PERTURBED = "dist --n 8 --p 1/3,2/3 --k 2"
IDENTITY_SAMPLER = '\n_SINGLE_SAMPLERS["inverse"] = lambda n, *rest: Permutation.identity(n)\n'


def copy_checkout(name: str, with_sources: bool = True):
    dest = MUTANTS / name
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(run.ROOT / "perfbench", dest / "perfbench", ignore=ignore)
    shutil.copy2(run.ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(run.ROOT / "src", dest / "src", ignore=ignore)
    return dest


def bench(dest, workload: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=dest, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines()


def expect_failure(name: str, dest, workload: str) -> bool:
    rc, lines = bench(dest, workload)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{name}: no result line (exit {rc})")
        return False
    ok = rc != 0 and result["failed"] > 0 and not result["correct"]
    print(f"{name}: exit {rc}, failed {result['failed']} -> {'caught' if ok else 'MISSED'}")
    for line in lines:
        if line.startswith("FAIL"):
            print(f"  {line}")
    return ok


def main() -> int:
    results = []

    dest = copy_checkout("digest")
    path = dest / "perfbench" / "digests.json"
    record = json.loads(path.read_text())
    old = record["digests"][PERTURBED]
    record["digests"][PERTURBED] = old[:-1] + ("0" if old[-1] != "0" else "1")
    path.write_text(json.dumps(record, indent=2) + "\n")
    results.append(expect_failure("digest", dest, "mixing-deep"))

    dest = copy_checkout("identity-sampler")
    with open(dest / "src" / "riffle" / "shuffles.py", "a") as fh:
        fh.write(IDENTITY_SAMPLER)
    results.append(expect_failure("identity-sampler", dest, "sampling"))

    dest = copy_checkout("bare", with_sources=False)
    rc, lines = bench(dest, "sampling")
    ok = rc != 0 and not any(line.startswith("{") for line in lines)
    print(f"bare: exit {rc}, {len(lines)} stdout lines -> {'refused' if ok else 'MISSED'}")
    results.append(ok)

    shutil.rmtree(MUTANTS, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
