"""Wall time, peak RSS and traced heap peak of every CLI stage at fixed world sizes.

    python benchmarks/bench_scale.py [--sizes 600,10000,50000,200000] [--repeats 3] [--out PATH]
    python benchmarks/bench_scale.py --against TREE [--sizes ...] [--repeats ...] [--out PATH]

Run from the root of a source checkout; the record goes to its
BENCH_scale.json (BENCH_scale_ab.json with --against) unless --out names
another path. Each size is the shipped configs/world.kv with n_examples set
to that size, and the shipped configs/grid.kv. The stages run in pipeline
order, each as a fresh ``python -m gatedmem.cli`` process with
``PYTHONPATH=src``:

    gen-world, fit, fit --governance-rounds 2, test (on the plain fit's
    manifest), counterfactual (one repair edit of E000), governance.

Two start-up processes run before the stages, so the floor every process
pays is visible: ``import gatedmem.cli``, which every stage runs first,
and ``import gatedmem`` with a default-sized generate_world, the set-up
that perfbench times. Each start-up process and stage runs --repeats
times. For each one the record keeps three metrics: wall time, CPU time
(the child's ru_utime + ru_stime, over all its threads) and peak RSS (the
child's ru_maxrss). Each metric holds this tree's median and samples
(``this``, ``this_samples``). The record names the host and whether child
processes may write bytecode caches (PYTHONDONTWRITEBYTECODE unset), since
without them every stage recompiles the package. Beside each tree's
``git describe`` the record keeps the sha256 of each of its
src/gatedmem/*.py files, so it says which code ran even when a tree is
dirty or not a git checkout, and each file's line count, so a change's
line delta comes from the same record as its timings. After a stage's
timed runs, one more untimed run of it per tree runs under tracemalloc,
started before the package is imported, and the record keeps its traced
peak in MiB as ``heap_peak_mib`` (``this``), beside ``peak_rss_mb``: what
the stage's Python code allocated, which RSS steps of about 1 MB of
allocator layout do not move. The same run wraps ``World._query_rows``
from outside the package and keeps, as ``query_rows`` (``this``), how
many query-stream rows the stage's reads asked for (``asked``) and how
many the stream drew to reach them (``drawn``): each read draws the
stream from its start through the last row it asks for. A process that
exits non-zero stops the run with exit status 1 and its output on stderr.

--against TREE compares this checkout with another source checkout in one
run, so drift of the host over time does not read as a change. Each
command runs once per repeat in each tree, on the same inputs, each tree
in its own work directory. The work directories are named 0 and 1, so the
two trees' command lines have equal length, and their processes differ
only by the checkout paths, which enter as the working directory and
PYTHONPATH; checkouts at paths of equal length make those equal in length
too. Which tree goes first alternates from one pair to the next. Each
metric then also holds TREE's median and samples (``against``,
``against_samples``), the median of the paired differences (this tree
minus TREE), how many pairs moved each way, an exact two-sided sign test
p over the pairs that moved and a verdict: ``lower`` or
``higher`` when p < 0.05, else ``not decided``. Five pairs can never
reach it (p >= 2 * 2**-5), so a decided verdict needs at least six. Per
stage the record also keeps whether every output file was byte-identical
between the trees on every repeat, and ``heap_peak_mib`` also holds
TREE's traced peak (``against``) and this tree's minus it (``change``),
and ``query_rows`` TREE's counts (``against``).

Two caveats are open. ``cpu_s`` has read about 0.12 s above ``wall_s`` on
every stage row of some full 600-200k runs, and at or below it in others on
the same code, for a cause not yet known (ROADMAP item 10), so a ``cpu_s``
change between two one-tree records can be that excess rather than the
code. Peak RSS moves in allocator-layout steps of about 1 MB that shift
with the size of the source, so an RSS verdict below about 1.5 MB says
nothing about the code unless a ``heap_peak_mib`` change sits beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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
# start-up processes timed beside the stages, keyed by the code each runs
STARTUP = (
    "import gatedmem.cli",
    "import gatedmem; gatedmem.generate_world(gatedmem.WorldSpec())",
)
SIGN_TEST_ALPHA = 0.05
# (record key, decimal places) of each metric, in the order run_child returns them
METRICS = (("wall_s", 4), ("cpu_s", 4), ("peak_rss_mb", 1))
# runs a stage's CLI arguments with tracemalloc started before the package is imported, counting the
# query-stream rows each World._query_rows read asks for and draws (the stream draws through the last
# row asked for); prints the traced peak and the counts last, as JSON
UNTIMED_RUN = (
    "import json, sys, tracemalloc\n"
    "tracemalloc.start()\n"
    "from gatedmem.cli import main\n"
    "from gatedmem.worldsim import World\n"
    "rows, read = {'asked': 0, 'drawn': 0}, World._query_rows\n"
    "def counted(self, asked):\n"
    "    rows['asked'] += len(asked)\n"
    "    rows['drawn'] += int(asked[-1]) + 1 if len(asked) else 0\n"
    "    return read(self, asked)\n"
    "World._query_rows = counted\n"
    "status = main(sys.argv[1:])\n"
    "print(json.dumps([tracemalloc.get_traced_memory()[1], rows]))\n"
    "sys.exit(status)\n"
)


def stage_commands(work: Path) -> dict[str, tuple[list[str], Path]]:
    """Stage name -> (CLI arguments, the directory the stage writes), in the order the stages must run."""
    cfg = ["--config", str(work / "world.kv")]
    grid = ["--grid", str(ROOT / "configs" / "grid.kv")]
    manifest = ["--manifest", str(work / "fit" / "manifest.json")]
    stages = {
        "gen-world": ("world", ["gen-world", *cfg]),
        "fit": ("fit", ["fit", *cfg, *grid]),
        "fit --governance-rounds 2": ("fit-gov", ["fit", *cfg, *grid, "--governance-rounds", "2"]),
        "test": ("test", ["test", *cfg, *manifest]),
        "counterfactual": ("cf", ["counterfactual", *cfg, *manifest, "--edits", str(work / "edits.jsonl")]),
        "governance": ("gov", ["governance", *cfg]),
    }
    return {name: ([*args, "--out", str(work / out)], work / out) for name, (out, args) in stages.items()}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict, cwd: Path) -> tuple[float, float, float]:
    """(wall seconds, CPU seconds, peak RSS in MB) of one process; exits 1 if it fails."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
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
        sys.exit(f"error: {' '.join(argv[1:])} in {cwd} exited {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def sign_test_p(lower: int, higher: int) -> float:
    """Exact two-sided sign test p of `lower` against `higher` untied pairs: twice the smaller binomial(n, 1/2) tail, at most 1."""
    n = lower + higher
    tail = sum(math.comb(n, i) for i in range(min(lower, higher) + 1))
    return min(1.0, 2 * tail / 2**n)


def summary(samples: dict, places: int) -> dict:
    """Each tree's median and samples of one metric. With a second tree, also the median paired difference
    (this - against), how many pairs moved each way, and the sign test over those pairs with its verdict;
    tied pairs count for neither side."""
    result = {}
    for name, values in samples.items():
        result[name] = round(statistics.median(values), places)
        result[f"{name}_samples"] = [round(x, places) for x in values]
    if "against" in samples:
        diffs = [a - b for a, b in zip(samples["this"], samples["against"])]
        lower, higher = sum(d < 0 for d in diffs), sum(d > 0 for d in diffs)
        p = sign_test_p(lower, higher)
        result.update(
            median_paired_change=round(statistics.median(diffs), places),
            pairs_this_lower=lower,
            pairs_this_higher=higher,
            sign_test_p=p,
            verdict=("lower" if lower > higher else "higher") if p < SIGN_TEST_ALPHA else "not decided",
        )
    return result


def output_files(out: Path) -> dict:
    """Relative path -> sha256 of every file a stage wrote.

    Files are hashed 1 MB at a time: on Linux a child's ru_maxrss is at
    least the peak RSS of the process that started it, so reading a whole
    200k outcome_table.json (59.8 MB) here would raise every later
    child's peak RSS to this script's.
    """
    digests = {}
    for p in sorted(out.rglob("*")):
        if p.is_file():
            h = hashlib.sha256()
            with open(p, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            digests[str(p.relative_to(out))] = h.hexdigest()
    return digests


def measure(commands: dict, trees: dict, repeats: int, first: int) -> dict:
    """Each tree's command run `repeats` times, summarised per metric; with two trees, which goes first
    alternates from `first`, and the result says whether they wrote the same files on every repeat.

    commands maps a tree name to (argv, the directory the command writes or None).
    """
    samples = {name: [] for name in trees}
    outputs = {name: [] for name in trees}
    names = list(trees)
    for r in range(repeats):
        order = names if (first + r) % 2 == 0 else names[::-1]
        for name in order:
            argv, out = commands[name]
            samples[name].append(run_child(argv, child_env(trees[name]), trees[name]))
            if out is not None and len(trees) > 1:
                outputs[name].append(output_files(out))
    result = {
        key: summary({name: [run[i] for run in runs] for name, runs in samples.items()}, places)
        for i, (key, places) in enumerate(METRICS)
    }
    if outputs["this"]:
        result["outputs_identical"] = outputs["this"] == outputs["against"]
    return result


def describe(label: str, result: dict, repeats: int) -> str:
    """One line: each metric's median in this tree and, with a second tree, its median there,
    the median paired change, how many pairs this tree was lower in, and the verdict."""
    parts = []
    for key, prefix, unit, digits in (("wall_s", "", "s", 3), ("cpu_s", "CPU ", "s", 3), ("peak_rss_mb", "", "MB", 1)):
        metric = result[key]
        part = f"{prefix}{metric['this']:.{digits}f}"
        if "against" in metric:
            part += (
                f" vs {metric['against']:.{digits}f} {unit} ({metric['median_paired_change']:+.{digits}f}, "
                f"lower {metric['pairs_this_lower']}/{repeats}, {metric['verdict']})"
            )
        else:
            part += f" {unit}"
        parts.append(part)
    if "heap_peak_mib" in result:
        heap = result["heap_peak_mib"]
        change = f" vs {heap['against']:.2f} MiB ({heap['change']:+.2f})" if "against" in heap else " MiB"
        parts.append(f"heap {heap['this']:.2f}{change}")
    if "query_rows" in result:
        rows = result["query_rows"]["this"]
        parts.append(f"query rows asked {rows['asked']} drawn {rows['drawn']}")
    if "outputs_identical" in result:
        parts.append(f"outputs {'identical' if result['outputs_identical'] else 'DIFFER'}")
    return f"{label}: {', '.join(parts)}"


def world_config(n_examples: int) -> str:
    lines = (ROOT / "configs" / "world.kv").read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if line.split("=")[0].strip() != "n_examples"]
    return "\n".join(kept + [f"n_examples = {n_examples}"]) + "\n"


def host() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(ROOT),
        "source_sha256": source_sha256(ROOT),
        "source_lines": source_lines(ROOT),
        "bytecode_cache": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def commit(root: Path) -> str | None:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_sha256(root: Path) -> dict:
    """File name -> sha256 of each src/gatedmem/*.py of a tree, as sha256sum prints it."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted((root / "src" / "gatedmem").glob("*.py"))}


def source_lines(root: Path) -> dict:
    """File name -> line count of each src/gatedmem/*.py of a tree, as wc -l counts them."""
    return {p.name: p.read_bytes().count(b"\n") for p in sorted((root / "src" / "gatedmem").glob("*.py"))}


def make_work(work: Path, n: int) -> Path:
    work.mkdir(parents=True)
    (work / "world.kv").write_text(world_config(n), encoding="utf-8")
    (work / "edits.jsonl").write_text(json.dumps(EDIT) + "\n", encoding="utf-8")
    return work


def every_command(record: dict, trees: dict, sizes: list[int], work_root: Path):
    """(record section, key, label, commands, stage arguments) of each measurement in run order: the
    start-up processes, then each stage at each size. commands maps a tree name to (argv, the directory
    it writes or None); stage arguments map it to the stage's CLI arguments, None for a start-up process.
    Each size's work directories are removed once its stages have run."""
    for code in STARTUP:
        yield record["startup"], code, code, {name: ([sys.executable, "-c", code], None) for name in trees}, None
    for n in sizes:
        # numbered, not named, so both trees' argv have the same length
        works = {name: make_work(work_root / str(i) / f"n{n}", n) for i, name in enumerate(trees)}
        stages = {name: stage_commands(work) for name, work in works.items()}
        section = record["sizes"][str(n)] = {}
        for stage in stages["this"]:
            args = {name: stages[name][stage][0] for name in trees}
            commands = {
                name: ([sys.executable, "-m", "gatedmem.cli", *args[name]], stages[name][stage][1]) for name in trees
            }
            yield section, stage, f"n={n} {stage}", commands, args
        for work in works.values():
            shutil.rmtree(work, ignore_errors=True)


def untimed_run(args: dict, trees: dict) -> tuple[dict, dict]:
    """Each tree's traced heap peak in MiB, and with two trees this one's minus the other's, and each tree's
    query-stream rows asked for and drawn, from one untimed run of the CLI with its stage arguments per
    tree; exits 1 if a run fails."""
    peaks, rows = {}, {}
    for name, root in trees.items():
        argv = [sys.executable, "-c", UNTIMED_RUN, *args[name]]
        proc = subprocess.run(argv, cwd=root, env=child_env(root), capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"error: {' '.join(args[name])} under tracemalloc in {root} exited {proc.returncode}")
        peak, rows[name] = json.loads(proc.stdout.splitlines()[-1])
        peaks[name] = round(peak / 2**20, 2)
    if "against" in peaks:
        peaks["change"] = round(peaks["this"] - peaks["against"], 2)
    return peaks, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default=",".join(map(str, DEFAULT_SIZES)), help="comma-separated n_examples")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", help="record path (default BENCH_scale.json, or BENCH_scale_ab.json with --against)")
    parser.add_argument("--against", type=Path, help="another source checkout to compare with, stage by stage")
    args = parser.parse_args(argv)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        parser.error(f"--sizes: {exc}")
    if args.repeats < 1 or not sizes or min(sizes) < 1:
        parser.error("--repeats and every size must be >= 1")
    trees = {"this": ROOT}
    if args.against is not None:
        trees["against"] = args.against.resolve()
    for root in trees.values():
        if not (root / "src" / "gatedmem" / "cli.py").is_file():
            parser.error(f"no gatedmem sources under {root / 'src'}")
    out = args.out or str(ROOT / ("BENCH_scale_ab.json" if args.against else "BENCH_scale.json"))

    record = {"host": host(), "repeats": args.repeats, "sizes": {}, "startup": {}}
    if args.against:
        record["against_commit"] = commit(trees["against"])
        record["against_source_sha256"] = source_sha256(trees["against"])
        record["against_source_lines"] = source_lines(trees["against"])
    work_root = Path(tempfile.mkdtemp(prefix="bench-scale-"))
    try:
        for i, (section, key, label, commands, stage_args) in enumerate(every_command(record, trees, sizes, work_root)):
            section[key] = measure(commands, trees, args.repeats, i * args.repeats)
            if stage_args is not None:
                section[key]["heap_peak_mib"], section[key]["query_rows"] = untimed_run(stage_args, trees)
            print(describe(label, section[key], args.repeats), flush=True)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
