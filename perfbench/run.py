"""Benchmark of latentpoison: the grid and attack_frozen workloads.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

It builds nothing: it imports the package from ``src/`` of the checkout
it sits in. With ``--trace 0`` it prints the end-to-end metrics
(set-up time, pass time, median operation time, peak memory); with
``--trace 1`` it prints per-layer metrics of the operations from a run
that wraps each layer's public functions, plus the tracing overhead,
and writes the spans and the set-up's layer figures to
``.perfbench/traces/``. The last line of standard output is
one JSON object; the line before it records the environment.

``--write-golden`` recomputes the golden digests of every workload and
input variant into ``perfbench/golden.json``.

BLAS runs one thread, fixed before numpy loads and recorded with every
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread keeps the whole benchmark on one CPU, so a busy
# neighbour on the other CPU does not stall every matrix product.
BLAS_THREADS = 1

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _line_count(directory: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(directory.rglob("*.py")))


def environment() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "machine": platform.machine(),
        "cpu_features": config["SIMD Extensions"]["found"],
        "src_lines": _line_count(ROOT / "src"),
        "scripts_lines": _line_count(ROOT / "scripts"),
    }


def _import_package():
    src = ROOT / "src"
    if not (src / "latentpoison" / "__init__.py").is_file():
        sys.exit(f"perfbench: no latentpoison package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import latentpoison

    if Path(latentpoison.__file__).resolve().parent != (src / "latentpoison").resolve():
        sys.exit(f"perfbench: imported latentpoison from {latentpoison.__file__}, not {src}")


def write_golden(scale) -> None:
    import digest
    from workloads import VARIANTS, WORKLOADS, record_golden

    work = ROOT / ".perfbench" / f"golden-{os.getpid()}"
    try:
        digests = {
            name: {str(v): record_golden(w, scale, v, work) for v in range(VARIANTS)}
            for name, w in WORKLOADS.items()
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    golden = {
        "environment": environment(),
        "scale": scale.__dict__,
        "rtol": digest.RTOL,
        "digests": digests,
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=("grid", "attack_frozen"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")

    _import_package()
    from workloads import VARIANTS, WORKLOADS, Scale, measure, measure_traced

    scale = Scale()
    if args.write_golden:
        write_golden(scale)
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["scale"] != scale.__dict__:
        sys.exit("perfbench: golden.json was made at another scale; rerun with --write-golden")
    expected = golden["digests"][args.workload][str(args.seed % VARIANTS)]
    workload = WORKLOADS[args.workload]
    env = environment()
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        if args.trace:
            metrics, passes, tracer, setup_figures = measure_traced(
                workload, scale, args.seed, args.seconds, work, expected
            )
            traces = ROOT / ".perfbench" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write(
                traces / f"{args.workload}-seed{args.seed}.jsonl",
                {"workload": args.workload, "seed": args.seed, "environment": env,
                 "setup": setup_figures},
            )
        else:
            metrics, passes, info = measure(workload, scale, args.seed, args.seconds, work, expected)
            env.update(info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"environment": env}, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
