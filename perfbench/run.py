"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload anon-dense-utility --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The input for (workload, seed) is
generated once and cached under ``.perfbench/``; the workload itself runs
in a fresh interpreter (``measure.py``) so its set-up time and peak RSS
are its own.  With ``--trace 0`` the last stdout line carries every
``end_to_end`` metric of ``BENCHMARK.json``, with ``--trace 1`` every
``per_layer`` one (span dump under ``.perfbench/traces/``).  The lines
before it give the output digest, every computed value and the execution
environment.  Exits non-zero without a result when the checkout holds no
``src/repro`` program or the workload fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seconds after which a run is abandoned (a run must end within 180 s).
TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return fail(f"no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    from workloads import STATE_DIR, WORKLOADS, ensure_inputs

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; expected one of "
                    f"{sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    paths = ensure_inputs(ROOT, args.workload, args.seed)
    trace_out = ""
    if args.trace:
        trace_dir = ROOT / STATE_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_out = str(trace_dir / f"{args.workload}-{args.seed}.json")

    # The measured process sees only the checkout's program and none of
    # the REPRO_* execution knobs, so every run uses the default config.
    # A fixed string-hash seed removes a per-process source of spread
    # (dict layouts while parsing the edge list).
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Its own session, so a timeout also stops the labeling pool it forks.
    child = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), args.workload,
         str(args.seed), str(args.seconds), trace_out, *map(str, paths)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, __ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return fail(f"{args.workload} did not finish in {TIMEOUT_S} s")
    if child.returncode != 0:
        return fail(f"{args.workload} exited with code {child.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])

    values = result["values"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"{args.workload} produced no value for {missing}")
    print(f"digest {args.workload} seed={args.seed} sha256={result['digest']}")
    print("values " + json.dumps(values, sort_keys=True))
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
