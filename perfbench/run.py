#!/usr/bin/env python3
"""riffle benchmark: fixed workloads of riffle CLI commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  Each
riffle command runs as a fresh ``python3`` process, started one after
another through ``spawner.py`` (a closed loop with one client, never more
than one child at a time).  Every output is checked; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` times whole passes over the workload's command list and
reports the end-to-end metrics named in BENCHMARK.json.  Before each pass's
bare imports, between commands and after the last one it times a fixed piece
of Python work, the reference, and divides the run's mean pass time and
median import time by the run's mean reference time over its nominal value:
a shared host that runs everything slower for a while (by tens of percent
over seconds) then moves the metrics much less.

``--trace 1`` runs each command in-process under ``tracer.py``, once plain
and once with spans installed, and reports the per-layer metrics as medians
over passes.  Both modes repeat passes while another fits in ``--seconds``
(at least one).

The robustness probes run untimed in both modes.  Their results are printed
with ``ops``/``ops_failed`` and never change the exit code, so known defects
stay visible without failing the run; any failed workload command makes the
run exit 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# The reference sample: REFERENCE_STEPS sets its size, and REFERENCE_NOMINAL_S
# is the time it counts as taking at nominal host speed (about its time on a
# quiet 2-vCPU 2.0 GHz Xeon).  Changing either changes every time metric.
REFERENCE_STEPS = 12000
REFERENCE_NOMINAL_S = 0.1
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 60.0
PROBE_TIMEOUT_S = 20.0
ENTRY = "import sys; from riffle.cli import main; sys.exit(main())"


@dataclass
class Result:
    rc: int
    out: str
    err: str
    wall: float
    rss_mb: float
    timed_out: bool


def child_env() -> dict[str, str]:
    """The caller's environment, with riffle importable from the checkout and
    bytecode caching on, as for an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawner:
    """Runs commands through ``spawner.py``, a process started while this one
    is still small, so a child's max RSS is its own: wall time from spawn to
    exit, max RSS from ``wait4``, stdout and stderr via files in BUILD."""

    def __init__(self):
        self._out, self._err = BUILD / "child.out", BUILD / "child.err"
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )

    def __call__(self, argv: list[str], timeout: float) -> Result:
        request = {"argv": argv, "timeout": timeout, "out": str(self._out), "err": str(self._err)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited")
        reply = json.loads(line)
        return Result(
            reply["rc"],
            self._out.read_text(errors="replace"),
            self._err.read_text(errors="replace"),
            reply["wall"],
            reply["rss_mb"],
            reply["timed_out"],
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def run_check(cmd, res: Result) -> str | None:
    if res.timed_out:
        return "time limit exceeded"
    return cmd.check(res.out, res.err, res.rc)


def riffle_argv(cmd) -> list[str]:
    return [sys.executable, "-c", ENTRY, *cmd.argv]


def tracer_argv(cmd, traced: bool) -> list[str]:
    script = str(HERE / "tracer.py")
    return [sys.executable, script, *(["--trace"] if traced else []), "--", *cmd.argv]


def run_probes(probes, spawn) -> list[tuple[str, str | None]]:
    outcomes = []
    for probe in probes:
        res = spawn(riffle_argv(probe), PROBE_TIMEOUT_S)
        outcomes.append((probe.text, run_check(probe, res)))
    return outcomes


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work (rational
    arithmetic, dict stores, a sort) with the collector off: a sample of how
    fast the host runs Python code right now."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, REFERENCE_STEPS):
            acc += Fraction(i % 7 + 1, i % 500 + 1)
            table[(i * 31) % 997] = acc
        sorted(((i * 7919) % 10007, i) for i in range(5 * REFERENCE_STEPS))
        return time.perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()


@dataclass
class Pass:
    """One pass over a workload: SETUP_REPEATS bare imports, then every
    command, with a reference sample before the imports, between any two
    commands and after the last one."""

    setups: list[float]
    walls: list[float]
    rss: list[float]
    refs: list[float]


def host_slowdown(passes: list[Pass]) -> float:
    """Mean reference time of a run over REFERENCE_NOMINAL_S.  The samples
    are spread through the run, so this is the host's slowdown averaged over
    the same stretch of time that the commands ran in."""
    return statistics.fmean(r for p in passes for r in p.refs) / REFERENCE_NOMINAL_S


def timed_passes(commands, seconds, spawn, log):
    """Whole passes over the command list as subprocesses, interleaved with
    reference samples so the run can be rescaled to the nominal speed."""
    import_argv = [sys.executable, "-c", "import riffle.cli"]
    passes, failures = [], []
    start = time.perf_counter()
    while True:
        refs, setups, walls, rss = [reference()], [], [], []
        for _ in range(SETUP_REPEATS):
            res = spawn(import_argv, COMMAND_TIMEOUT_S)
            if res.rc != 0:
                raise RuntimeError(f"import riffle.cli failed: {res.err.strip()[-300:]}")
            setups.append(res.wall)
        for cmd in commands:
            refs.append(reference())
            res = spawn(riffle_argv(cmd), COMMAND_TIMEOUT_S)
            problem = run_check(cmd, res)
            if problem:
                failures.append((cmd.text, problem))
            walls.append(res.wall)
            rss.append(res.rss_mb)
        refs.append(reference())
        passes.append(Pass(setups, walls, rss, refs))
        log(f"pass {len(passes)}: {sum(walls):.3f} s, host slowdown {host_slowdown(passes[-1:]):.3f}")
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes, failures


def traced_passes(commands, seconds, spawn, log):
    """Per command, one plain and one traced in-process run in fresh children."""
    passes, failures = [], []
    start = time.perf_counter()
    while True:
        plain_wall = traced_wall = 0.0
        spans = {"self_s": {}, "calls": {}, "counts": {}}
        for cmd in commands:
            headers, problems = [], []
            for traced in (False, True):
                res = spawn(tracer_argv(cmd, traced), COMMAND_TIMEOUT_S)
                header_line, _, out = res.out.partition("\n")
                try:
                    header = json.loads(header_line)
                except ValueError:
                    header = {"rc": res.rc or 1, "wall_s": res.wall}
                    out = ""
                problems.append("time limit exceeded" if res.timed_out else cmd.check(out, res.err, header["rc"]))
                headers.append(header)
            if any(problems):
                failures.append((cmd.text, "; ".join(filter(None, problems))))
            plain_wall += headers[0]["wall_s"]
            traced_wall += headers[1]["wall_s"]
            for kind, table in spans.items():
                for key, value in headers[1].get(kind, {}).items():
                    table[key] = table.get(key, 0) + value
        passes.append((plain_wall, traced_wall, spans))
        log(f"pass {len(passes)}: plain {plain_wall:.3f} s, traced {traced_wall:.3f} s")
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes, failures


def layer_metrics(plain_wall: float, traced_wall: float, spans: dict) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    self_s, calls, counts = spans["self_s"], spans["calls"], spans["counts"]
    values: dict[str, float] = dict(counts)
    for label, seconds in self_s.items():
        values[f"{label}.self_s"] = seconds
        values[f"{label}.calls"] = calls.get(label, 0)
    values["qpoly.QPolynomial.ops"] = calls.get("qpoly.QPolynomial", 0)
    draws = 0
    sample_s = 0.0
    for label, n in calls.items():
        if label.startswith("shuffles.sample."):
            draws += n
            sample_s += self_s[label]
            values[f"{label}.us_per_draw"] = self_s[label] / n * 1e6
    values["shuffles.sample.draws"] = draws
    values["shuffles.sample.self_s"] = sample_s
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    values["trace.unattributed_frac"] = (traced_wall - sum(self_s.values())) / traced_wall
    return values


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "riffle" / "cli.py").is_file():
        print(f"error: no riffle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    BUILD.mkdir(exist_ok=True)
    with Spawner() as spawn:
        return measure(args, spec, spawn)


def measure(args, spec, spawn) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    commands = workloads.WORKLOADS[args.workload](args.seed)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)

    def log(line: str):
        print(line, flush=True)

    log(
        f"env: git {git_sha()}, python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"machine {platform.machine()}"
    )
    log(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): {why}")
    # the first import compiles bytecode; keep it out of setup_s
    spawn([sys.executable, "-c", "import riffle.cli"], COMMAND_TIMEOUT_S)
    probes = run_probes(workloads.PROBES, spawn)

    metrics: dict[str, float] = {}
    if args.trace:
        passes, failures = traced_passes(commands, args.seconds, spawn, log)
        per_pass = [layer_metrics(*p) for p in passes]
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        for name, _ in names:
            metrics[name] = statistics.median(p.get(name, 0) for p in per_pass)
    else:
        passes, failures = timed_passes(commands, args.seconds, spawn, log)
        per_command = list(zip(*(p.walls for p in passes)))
        for cmd, walls in zip(commands, per_command):
            log(f"  {statistics.median(walls):8.3f} s  {cmd.text[:100]}")
        raw_wall = statistics.fmean(sum(p.walls) for p in passes)
        raw_setup = statistics.median(s for p in passes for s in p.setups)
        slowdown = host_slowdown(passes)
        log(f"raw wall {raw_wall:.4f} s (mean over {len(passes)} passes), raw setup {raw_setup:.4f} s, "
            f"host slowdown {slowdown:.3f}")
        metrics = {
            "wall_ref_s": raw_wall / slowdown,
            "setup_s": raw_setup / slowdown,
            "peak_rss_mb": statistics.median(max(p.rss) for p in passes),
        }
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        if args.workload == "sampling":
            draws = workloads.SAMPLE_COUNT * len(commands)
            log(f"draws_per_s {draws / raw_wall:.1f} 1/s ({draws} draws per pass)")

    attempted = len(passes) * len(commands)
    probe_failures = [(text, why) for text, why in probes if why]
    for text, why in failures:
        log(f"FAIL {text[:100]}: {why}")
    for text, why in probes:
        log(f"probe {'FAIL' if why else 'ok'}: {text}{': ' + why if why else ''}")
    log(f"ops {attempted + len(probes)} count")
    log(f"ops_failed {len(failures) + len(probe_failures)} count")
    result_metrics = {}
    for name, unit in names:
        if name not in metrics:
            raise KeyError(f"BENCHMARK.json names {name!r}, which this workload does not measure")
        result_metrics[name] = {"value": metrics[name], "unit": unit}
        log(f"{name} {metrics[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": result_metrics,
            }
        ),
        flush=True,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
