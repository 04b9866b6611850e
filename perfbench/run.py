"""Benchmark of the TCP simulator: one workload per run, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Workloads (see ``loops.py`` and ``NOTES.md``): ``grid`` (every
prefetcher on one of six suite benchmarks, native backend, in process),
``campaign`` (every prefetcher on four suite benchmarks through the
``prewarm`` pool on the python reference, then a zero-work resume),
``mix`` (the mix1-mix7 ladder on the four-core front end).

The launcher builds the native extension once (outside measurement),
takes several fresh-interpreter set-up samples, then runs the
measurement in a child process.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` a traced window
follows an untraced one and the line carries the per-layer ledger.
Outputs are checked in the same run; any failed check makes the exit
status 1.  Per-cell provenance rows, spans and the ledger are written
under ``.perfbench/runs/``.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ledger import PER_LAYER  # noqa: E402

WORKLOADS = ("grid", "campaign", "mix")
END_TO_END = {
    "accesses_per_s": "accesses/s",
    "cell_ms_p50": "ms",
    "cell_ms_p85": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: fresh-interpreter set-up samples per run; setup_s is their median.
SETUP_SAMPLES = 5
#: every child finishes within this many seconds of the launcher start.
RUN_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def child_env(root: Path, state: Path, run_dir: Path) -> dict:
    """The program's environment: sources from the checkout, every cache
    and temporary file inside it, and no inherited ``REPRO_*`` knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["XDG_CACHE_HOME"] = str(state / "cache")
    env["HOME"] = str(state / "home")
    env["TMPDIR"] = str(run_dir / "tmp")
    for key in ("XDG_CACHE_HOME", "HOME", "TMPDIR"):
        Path(env[key]).mkdir(parents=True, exist_ok=True)
    return env


def run_child(args: list, env: dict, deadline: float) -> str:
    """Run ``child.py`` in its own process group; return its stdout.

    On timeout the whole process group (pool workers included) is
    killed and reaped.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child {args[0]} exceeded the run time limit") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[0]} exited with status {proc.returncode}")
    return out


def last_json(out: str) -> dict:
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise ChildFailed("child printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: ./src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    state = root / ".perfbench"
    run_dir = state / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env(root, state, run_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_s = []

    def sample_setup(count: int) -> None:
        for _ in range(count):
            sample_dir = run_dir / f"setup{len(setup_s)}"
            began = time.perf_counter()
            run_child(["setup", *common, "--dir", str(sample_dir)], env, deadline)
            setup_s.append(time.perf_counter() - began)
            shutil.rmtree(sample_dir, ignore_errors=True)

    try:
        build = last_json(run_child(["build"], env, deadline))
        # Half the set-up samples before the measurement and half after,
        # so one slow stretch of a shared host cannot set the median.
        if not args.trace:
            sample_setup(SETUP_SAMPLES // 2 + 1)
        measured = last_json(
            run_child(
                [
                    "measure", *common,
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                    "--dir", str(run_dir),
                ],
                env,
                deadline,
            )
        )
        if not args.trace:
            sample_setup(SETUP_SAMPLES // 2)
    except (ChildFailed, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    values = dict(measured["metrics"])
    if args.trace:
        units = PER_LAYER
    else:
        values["setup_s"] = statistics.median(setup_s)
        units = END_TO_END
    summary = dict(
        measured["summary"],
        native_available=build["available"],
        native_built=build["built"],
        setup_samples=len(setup_s),
        elapsed_s=round(time.monotonic() - start, 1),
    )
    print(f"perfbench {args.workload}: {json.dumps(summary)}", file=sys.stderr)
    for failure in measured["failures"]:
        print(f"perfbench FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": measured["correct"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if measured["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
