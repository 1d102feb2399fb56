"""dynoscale benchmark: closed-loop runs of the CLI, checked and measured.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cover --seed 1 --seconds 25 --trace 0

One client runs one CLI process at a time (a closed loop; no parallel runs).
The run starts workload iterations until ``--seconds`` have passed (the last
one runs to its end), then times set-up (importing ``dynoscale.cli`` and
building the workload's system) in separate processes.  Every iteration
is checked by ``workloads.check_output``; an iteration fails on a non-zero
exit, on passing the wall cap (it is killed) or on a rejected output, and no
iteration is dropped.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` each iteration is one untraced and one traced run
(``tracing.py``), and the line carries the per-layer metrics of the traced
iteration with the median wall time.  The line before it records the
interpreter, numpy and scipy versions, nproc, the load average and the
samples behind each median.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
CAP_S = 60.0    # wall cap of one iteration or set-up; a hung one is killed
SETUP_REPEATS = 5
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("exact_share", "fraction"), ("ok_share", "fraction"))

SETUP_CODE = """\
import json, sys, time
start = time.perf_counter()
import dynoscale.cli
system = json.loads(sys.argv[1])
if system is not None:
    dynoscale.harness.resolve_system(system)
print(time.perf_counter() - start)
"""


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str


@dataclass
class Iteration:
    wall_s: float = 0.0
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    exact: int = 0
    cells: int = 0
    spans: list = field(default_factory=list)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str], env: dict, cwd: Path, timeout: float, log: Path) -> Child:
    """Run ``cmd`` to completion or kill it at ``timeout``; rusage is this child's own."""
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd,
                                start_new_session=True)
        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text()
    if killed.is_set():
        code, stderr = -1, f"killed at the {timeout:.0f} s wall cap\n{stderr}"
    return Child(code, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                 out_path.read_text(), stderr)


def time_setup(root: Path, env: dict, inputs: dict, work: Path) -> float:
    system = inputs.get("system")
    child = run_child([sys.executable, "-c", SETUP_CODE, json.dumps(system)], env, root,
                      CAP_S, work / "setup")
    if child.code != 0:
        raise SystemExit(f"set-up failed ({child.code}): {child.stderr.strip()[-2000:]}")
    return float(child.stdout.strip().splitlines()[-1])


def run_iteration(root: Path, env: dict, workload: str, inputs: dict, reference: dict,
                  work: Path, traced: bool, run_id: str) -> Iteration:
    out_dir = work / run_id
    out_dir.mkdir()
    it = Iteration()
    deadline = time.perf_counter() + CAP_S
    stdouts = []
    try:
        for step, args in enumerate(workloads.cli_steps(workload, inputs, out_dir)):
            spans_path = out_dir / f"spans{step}.json"
            prefix = ([sys.executable, str(HERE / "tracing.py"), str(spans_path), run_id, "--"]
                      if traced else [sys.executable, "-m", "dynoscale.cli"])
            child = run_child(prefix + args, env, root, deadline - time.perf_counter(),
                              out_dir / f"step{step}")
            it.wall_s += child.wall_s
            it.rss_mb = max(it.rss_mb, child.rss_mb)
            it.cpu_s += child.cpu_s
            if child.code != 0:
                it.problems.append(f"{args[0]} exit {child.code}: {child.stderr.strip()[-500:]}")
                return it
            stdouts.append(child.stdout)
            if traced:
                it.spans.append(json.loads(spans_path.read_text())["spans"])
        it.problems, it.exact, it.cells = workloads.check_output(
            workload, out_dir, stdouts, reference)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return it


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(iters: list[Iteration], setups: list[float]) -> dict[str, float]:
    ok = [it for it in iters if not it.problems]
    cells = sum(it.cells for it in ok)
    return {
        "wall_s": _median([it.wall_s for it in iters]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([it.rss_mb for it in iters]),
        "exact_share": sum(it.exact for it in ok) / cells if cells else 0.0,
        "ok_share": len(ok) / len(iters),
    }


def per_layer(plain: list[Iteration], traced: list[Iteration]) -> dict[str, float]:
    """Layer metrics of the traced iteration with the median wall time."""
    chosen = sorted(traced, key=lambda it: it.wall_s)[(len(traced) - 1) // 2]
    out = layers.layer_metrics(layers.merge(chosen.spans))
    self_total = sum(out[f"self.{layer}_s"] for layer in layers.LAYERS)
    out["process.cpu_s"] = _median([it.cpu_s for it in plain])
    out["trace.wall_s"] = chosen.wall_s
    out["trace.remainder_s"] = chosen.wall_s - self_total
    out["trace.overhead_s"] = chosen.wall_s - _median([it.wall_s for it in plain])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dynoscale" / "cli.py").is_file():
        print("run from the root of a dynoscale checkout (no src/dynoscale/cli.py here)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    inputs = workloads.make_inputs(args.workload, args.seed)
    reference = workloads.load_reference()
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        plain: list[Iteration] = []
        traced: list[Iteration] = []
        start = time.perf_counter()
        while True:
            k = len(plain)
            plain.append(run_iteration(root, env, args.workload, inputs, reference, work,
                                       False, f"it{k}"))
            if args.trace:
                traced.append(run_iteration(root, env, args.workload, inputs, reference,
                                            work, True, f"it{k}-traced"))
            if time.perf_counter() - start >= args.seconds:
                break
        # after the iterations, so set-up meets the processor in the same state
        setups = [time_setup(root, env, inputs, work) for _ in range(SETUP_REPEATS)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    iters = plain + traced
    failed = [it for it in iters if it.problems]
    for it in failed:
        print("failed iteration: " + "; ".join(it.problems[:5]), file=sys.stderr)
    if args.trace:
        metrics, units = per_layer(plain, traced), dict(layers.PER_LAYER)
    else:
        metrics, units = end_to_end(plain, setups), dict(END_TO_END)
    print(json.dumps({"info": {
        "workload": args.workload, "seed": args.seed, "inputs": inputs,
        "python": sys.version.split()[0], "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(), "samples": len(plain),
        "wall_s": [it.wall_s for it in plain], "cpu_s": [it.cpu_s for it in plain],
        "setup_s": setups,
        "traced_wall_s": [it.wall_s for it in traced]}}))
    print(json.dumps({
        "correct": not failed, "attempted": len(iters), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
