"""Benchmark entry point.  Run from the repository root:

    python3 perfbench/run.py --workload train|generate|evaluate \\
        --seed N --seconds S --trace 0|1

Steps, each in a process of its own:

1. ``prepare.py`` builds, with the code under test, the artifacts that do
   not depend on the seed (cached under ``.bench_build/perfbench``, keyed
   by a hash of the program, the fixture and the benchmark's input code);
2. ``synth.py`` writes the seeded inputs of ``train`` and ``evaluate``;
3. ``workload.py`` sets up, measures, checks and prints the result as its
   last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "verseforge"
FIXTURE = ROOT / "tests" / "data" / "fixture_corpus.jsonl"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("train", "generate", "evaluate")
PREPARE_TIMEOUT_S = 800
STEP_TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _call(args, timeout) -> None:
    """Run a step to its end; a failure or timeout ends the benchmark."""
    subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=_env(),
                   timeout=timeout, check=True)


def _prepared() -> Path:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")) + [FIXTURE, HERE / "synth.py", HERE / "prepare.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    out = WORK / f"prepared-{h.hexdigest()[:16]}"
    if not out.is_dir():
        tmp = WORK / f"{out.name}.tmp-{os.getpid()}"
        tmp.mkdir(parents=True)
        try:
            _call([HERE / "prepare.py", "--fixture", FIXTURE, "--out", tmp], PREPARE_TIMEOUT_S)
            tmp.rename(out)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file() or not FIXTURE.is_file():
        print(f"perfbench: {PACKAGE} or {FIXTURE} missing; run from a full checkout",
              file=sys.stderr)
        return 2

    try:
        prepared = _prepared()
        inputs = WORK / f"inputs-{os.getpid()}"
        inputs.mkdir(parents=True)
        try:
            if args.workload != "generate":
                _call([HERE / "synth.py", args.workload, "--seed", args.seed,
                       "--fixture", FIXTURE, "--annotations",
                       prepared / "fixture_meter_verse.json", "--out", inputs],
                      STEP_TIMEOUT_S)
            _call([HERE / "workload.py", args.workload, "--seed", args.seed,
                   "--seconds", args.seconds, "--trace", args.trace,
                   "--inputs", inputs, "--prepared", prepared, "--fixture", FIXTURE],
                  STEP_TIMEOUT_S)
        finally:
            shutil.rmtree(inputs, ignore_errors=True)
    except subprocess.CalledProcessError as e:
        print(f"perfbench: step failed with exit code {e.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: step timed out after {e.timeout} s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
