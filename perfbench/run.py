"""The repository benchmark.  Run from the root of a checkout::

    python3 perfbench/run.py --workload ticker --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload orders --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

A run drives one workload (``ticker``, ``cep`` or ``orders``; see
``workloads.py``) through the ``ReactiveNode`` facade, checks its outputs
against the workload's reference, prints a table of metrics with units,
writes the full result (metrics, details, environment) as JSON under
``.perfbench/results/`` (or ``--out``), and prints as its last line::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (and dumps every span as JSON lines under ``.perfbench/traces/``).
A failed correctness gate prints the mismatches to standard error, no
metrics, and exits with status 1.  ``--compare`` reads two directories
of result files and prints a verdict per (workload, metric); see
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, detail: dict) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
        "events_per_phase": detail["events"],
        "paced_eps": detail["paced_eps"],
        "batch": detail["batch"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Benchmark one workload through the ReactiveNode facade.")
    parser.add_argument("--workload", choices=("ticker", "cep", "orders"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="sizes the run; each workload splits it "
                             "between its saturating and paced phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(OUT, "results"),
                        help="directory for the result JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny rule bases and histories (tests only)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two directories of result files")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required (or --compare BASE CHANGE)")
    return args


def print_table(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>14.4f} {metric['unit']}")
    detail = result["detail"]
    print(f"  latency samples: {detail['latency_samples']} "
          f"(paced at {detail['paced_eps']} ev/s, batches of "
          f"{detail['batch']}); paced phase shed {detail['paced_shed']}; "
          f"driver late p99 {detail['late_p99_ms']:.3f} ms")
    check = detail.get("coverage_check")
    if check is not None:
        print(f"  coverage check: layer self {check['layers_self_s']:.4f} s + "
              f"uncovered driver {check['uncovered_s']:.4f} s = wall "
              f"{check['wall_s']:.4f} s (error {check['error']:.2%}; "
              f"{detail['spans']} spans)")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, HERE)
    if args.compare is not None:
        from compare import compare_dirs

        return compare_dirs(*args.compare,
                            os.path.join(ROOT, "BENCHMARK.json"))
    # The program under test runs from the checkout's source tree; there
    # is no build step.  Refuse to measure any other copy of it.
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from "
              f"{src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported {repro.__file__}, not the copy under "
              f"{src}", file=sys.stderr)
        return 2
    from driver import GateFailure, run_benchmark

    os.makedirs(OUT, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}"
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        result = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir, smoke=args.smoke,
            trace_path=os.path.join(OUT, "traces", tag + ".jsonl"))
    except GateFailure as exc:
        for problem in exc.problems:
            print(f"perfbench: correctness gate failed: {problem}",
                  file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["workload"] = args.workload
    result["trace"] = args.trace
    result["env"] = environment(args, result["detail"])
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, tag + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print_table(result)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed",
                                  "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
