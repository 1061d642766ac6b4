"""Wall time and peak RSS of every CLI stage at fixed world sizes.

    python benchmarks/bench_scale.py [--sizes 600,10000,50000,200000] [--repeats 3] [--out PATH]

Run from the root of a source checkout; the record goes to its
BENCH_scale.json unless --out names another path. Each size is the
shipped configs/world.kv with n_examples set to that size, and the
shipped configs/grid.kv. The stages run in pipeline order, each as a
fresh ``python -m gatedmem.cli`` process with ``PYTHONPATH=src``:

    gen-world, fit, fit --governance-rounds 2, test (on the plain fit's
    manifest), counterfactual (one repair edit of E000), governance.

Every stage runs --repeats times; the record keeps each sample and the
median wall time and median peak RSS (the child's ru_maxrss). An
import-only process (``python -c "import gatedmem.cli"``) is timed the
same way, so the start-up floor every stage pays is visible. The record
names the host and whether child processes may write bytecode caches
(PYTHONDONTWRITEBYTECODE unset), since without them every stage
recompiles the package. A stage that exits non-zero stops the run with
exit status 1 and its output on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SIZES = (600, 10_000, 50_000, 200_000)
EDIT = {"entry_id": "E000", "edit_kind": "repair", "new_payload": "repaired E000"}


def stage_args(work: Path) -> dict[str, list[str]]:
    """Stage name -> CLI arguments, in the order the stages must run."""
    cfg = ["--config", str(work / "world.kv")]
    grid = ["--grid", str(ROOT / "configs" / "grid.kv")]
    manifest = ["--manifest", str(work / "fit" / "manifest.json")]
    return {
        "gen-world": ["gen-world", *cfg, "--out", str(work / "world")],
        "fit": ["fit", *cfg, *grid, "--out", str(work / "fit")],
        "fit --governance-rounds 2": ["fit", *cfg, *grid, "--governance-rounds", "2", "--out", str(work / "fit-gov")],
        "test": ["test", *cfg, *manifest, "--out", str(work / "test")],
        "counterfactual": [
            "counterfactual", *cfg, *manifest, "--edits", str(work / "edits.jsonl"), "--out", str(work / "cf"),
        ],
        "governance": ["governance", *cfg, "--out", str(work / "gov")],
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one process; exits 1 if it fails."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(output.decode("utf-8", "replace"))
        sys.exit(f"error: {' '.join(argv[1:])} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def measure(argv: list[str], env: dict, repeats: int) -> dict:
    samples = [run_child(argv, env) for _ in range(repeats)]
    walls, rss = [w for w, _ in samples], [r for _, r in samples]
    return {
        "wall_s": round(statistics.median(walls), 4),
        "peak_rss_mb": round(statistics.median(rss), 1),
        "wall_s_samples": [round(w, 4) for w in walls],
        "peak_rss_mb_samples": [round(r, 1) for r in rss],
    }


def world_config(n_examples: int) -> str:
    lines = (ROOT / "configs" / "world.kv").read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if line.split("=")[0].strip() != "n_examples"]
    return "\n".join(kept + [f"n_examples = {n_examples}"]) + "\n"


def host() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "bytecode_cache": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default=",".join(map(str, DEFAULT_SIZES)), help="comma-separated n_examples")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if args.repeats < 1 or not sizes or min(sizes) < 1:
        parser.error("--repeats and every size must be >= 1")
    if not (ROOT / "src" / "gatedmem" / "cli.py").is_file():
        parser.error(f"no gatedmem sources under {ROOT / 'src'}")

    env = child_env()
    record = {
        "host": host(),
        "repeats": args.repeats,
        "import_only": measure([sys.executable, "-c", "import gatedmem.cli"], env, args.repeats),
        "sizes": {},
    }
    print(f"import-only: {record['import_only']['wall_s']:.3f} s", flush=True)
    work_root = Path(tempfile.mkdtemp(prefix="bench-scale-"))
    try:
        for n in sizes:
            work = work_root / f"n{n}"
            work.mkdir()
            (work / "world.kv").write_text(world_config(n), encoding="utf-8")
            (work / "edits.jsonl").write_text(json.dumps(EDIT) + "\n", encoding="utf-8")
            stages = {}
            for name, cli_args in stage_args(work).items():
                stages[name] = measure([sys.executable, "-m", "gatedmem.cli", *cli_args], env, args.repeats)
                print(f"n={n} {name}: {stages[name]['wall_s']:.3f} s, {stages[name]['peak_rss_mb']:.1f} MB", flush=True)
            record["sizes"][str(n)] = stages
            shutil.rmtree(work, ignore_errors=True)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
