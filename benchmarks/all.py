"""Run every workload, untraced then traced, and print every metric with its unit.

    python3 benchmarks/all.py --seed 0 --seconds 25 [--record benchmarks/results/NAME.json]

Each run is a fresh ``run.py`` process, so peak RSS is per workload.
``--record`` writes the runs' full records (environment, fit times,
checks, metrics) as one entry of the results trajectory.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import LAYER_EFFECTS, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--record", type=Path, help="write the runs' records here")
    args = parser.parse_args(argv)

    records = []
    all_correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{name} trace={trace}: exit code {done.returncode}")
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            all_correct &= result["correct"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed_frac={result['failed'] / result['attempted']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:36s} {entry['value']!s:>22} {entry['unit']}")
            records.append(json.loads(
                (ROOT / ".bench_out" / name / "result.json").read_text()))
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(
            {"layer_effects": LAYER_EFFECTS, "runs": records}, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
