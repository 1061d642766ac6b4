"""Pipeline benchmark for the gatedmem CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/gatedmem`` must exist). One
client runs the five CLI stages of a workload in sequence, each as a fresh
``python -m gatedmem.cli`` process with ``PYTHONPATH=src``, the way users run
them; nothing else runs alongside. The workload's config, grid and edits are
generated from ``--seed``.

``--trace 0`` repeats the pipeline until ``--seconds`` have passed, and at
least twice. Before each stage it times a fresh interpreter that imports
gatedmem and builds the workload's world, the set-up every stage pays. It
reports the median set-up time, the median pipeline wall time and the
median peak max-RSS of any stage process.

``--trace 1`` runs the pipeline once untraced and once under
``perfbench/tracer.py`` and reports each stage's untraced wall time, self
time per stage and layer, the tracing overhead, and counters taken at the
layer boundaries.

Every stage's outputs are checked, and the digests of its result files must
match across repeats and between traced and untraced runs. A stage that exits
non-zero or fails a check counts as failed. The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` stages, and
``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
STAGES = ("gen_world", "fit", "test", "counterfactual", "governance")
LAYERS = ("cli", "protocol", "controller", "retrieval", "worldsim", "bank", "stats", "util", "io")
MIN_REPEATS = 2  # the determinism gate needs a repeat to compare against
LEDGER_NAMES = ("policy", "retry", "always_retrieve", "fixed_budget", "oracle")

# configs/world.kv and configs/grid.kv as shipped when this benchmark was
# written, copied so that a later change to the shipped defaults cannot
# silently change a workload. The entry counts are the WorldSpec defaults,
# made explicit because the edits name entries.
SHIPPED_WORLD = {
    "n_examples": "600",
    "base_accuracy": "0.74",
    "applicability_rate.rule": "0.35",
    "applicability_rate.exemplar": "0.35",
    "help_prob_given_applicable": "0.40",
    "hurt_prob_given_inapplicable": "0.5",
    "topic_count": "12",
    "n_rule_entries": "50",
    "n_exemplar_entries": "100",
}
SHIPPED_GRID = {
    "tau_percentile": "35",
    "margin_m": "0.0|0.05",
    "bank_policy": "gate_only|choose|dual|multibank_best",
    "primary_bank": "rule|exemplar",
}


@dataclass(frozen=True)
class Workload:
    world: dict
    grid: dict
    fit_args: tuple
    pool_seeds: int
    edits: int  # entries edited for the counterfactual stage, picked by the seed
    governance_rounds: int


WORKLOADS = {
    # One step per episode: budgets never bind and banks never change during
    # fit, so time goes to bootstrap memory and repeated retrieval on fixed
    # snapshots. n=600 finishes every stage in under 2 s; n=10k needs 2.4 GB.
    "single-step-large": Workload(
        world=dict(SHIPPED_WORLD, n_examples="4000"),
        grid=SHIPPED_GRID,
        fit_args=(),
        pool_seeds=3,
        edits=2,
        governance_rounds=5,
    ),
    # Multi-step governed episodes: guards reject, budgets and cooldowns bind,
    # banks take evidence, retire and re-freeze, so snapshots change.
    "multi-step-governed": Workload(
        world=dict(
            SHIPPED_WORLD,
            n_examples="2000",
            steps_per_episode="8",
            **{"guard_pass_rate.format": "0.8", "guard_pass_rate.progress": "0.9"},
            toxic_entry_rate="0.2",
        ),
        grid={
            "budget_B": "2|none",
            "cooldown": "0|1",
            "bank_policy": "cascade_rule_then_exemplar|dual|multibank_best",
            "tau_percentile": "35|50",
            "margin_m": "0.0|0.05",
        },
        fit_args=("--governance-rounds", "5"),
        pool_seeds=1,
        edits=50,  # a third of the 150 entries
        governance_rounds=8,
    ),
}

# result files whose digests must repeat exactly; other outputs are not gated
DIGESTED = {
    "gen_world": ("outcome_table.json",),
    "fit": ("manifest.json", "policy.kv"),
    "test": ("ledger*.csv", "traces.jsonl"),
    "counterfactual": ("audit.json", "counterfactual_rows.jsonl"),
    "governance": ("governance.json",),
}

SETUP_CODE = (
    "import json, sys, gatedmem; "
    "gatedmem.generate_world(gatedmem.WorldSpec.from_flat(json.loads(sys.argv[1])))"
)
PROVENANCE_CODE = """
import importlib.util, json, platform
import numpy
try:
    from gatedmem import kernels
    backend = "numba" if kernels.USING_NUMBA else "numpy"
except ImportError:
    backend = None
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "numba_importable": importlib.util.find_spec("numba") is not None,
    "kernel_backend_auto": backend,
}))
"""
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def write_kv(path: Path, items: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in sorted(items.items())), encoding="utf-8")


def make_inputs(workload: Workload, seed: int, inputs: Path) -> dict:
    """Write the world config, grid and edits the program receives."""
    inputs.mkdir(parents=True)
    world = dict(workload.world, seed=str(seed))
    write_kv(inputs / "world.kv", world)
    write_kv(inputs / "grid.kv", workload.grid)
    ids = [f"R{i:03d}" for i in range(int(world["n_rule_entries"]))]
    ids += [f"E{i:03d}" for i in range(int(world["n_exemplar_entries"]))]
    chosen = sorted(random.Random(seed).sample(ids, workload.edits))
    with open(inputs / "edits.jsonl", "w", encoding="utf-8") as fh:
        for eid in chosen:
            fh.write(json.dumps({"entry_id": eid, "edit_kind": "repair", "new_payload": f"edited {eid}"}) + "\n")
    return world


def stage_args(stage: str, workload: Workload, inputs: Path, out: Path) -> list[str]:
    cfg = ["--config", str(inputs / "world.kv"), "--out", str(out / stage)]
    manifest = ["--manifest", str(out / "fit" / "manifest.json")]
    return {
        "gen_world": ["gen-world", *cfg],
        "fit": ["fit", *cfg, "--grid", str(inputs / "grid.kv"), *workload.fit_args],
        "test": ["test", *cfg, *manifest, "--pool-seeds", str(workload.pool_seeds)],
        "counterfactual": ["counterfactual", *cfg, *manifest, "--edits", str(inputs / "edits.jsonl")],
        "governance": [
            "governance", *cfg, "--rounds", str(workload.governance_rounds),
            "--policy", str(out / "fit" / "policy.kv"),
        ],
    }[stage]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log: Path, env: dict) -> tuple[int, float, float]:
    """Run to completion; return (exit code, wall seconds, max RSS in MB)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_ledger(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows[row["comparison"].removesuffix(" vs baseline")] = row
    return rows


def check_ledger(path: Path, env: dict, log: Path) -> list[str]:
    rows = read_ledger(path)
    missing = [name for name in LEDGER_NAMES if name not in rows]
    if missing:
        return [f"ledger rows missing: {missing}"]
    problems = []
    for name, row in rows.items():
        n, dacc, hh = int(row["n"]), float(row["delta_acc"]), int(row["help_hurt"])
        # delta_acc is printed to 6 decimals, so delta_acc*n is exact to n*5e-7
        if abs(dacc * n - hh) > n * 5e-7 + 1e-9:
            problems.append(f"{name}: delta_acc*n = {dacc * n} != help_hurt {hh}")
    if float(rows["retry"]["delta_acc"]) != 0.0 or int(rows["retry"]["help_hurt"]) != 0:
        problems.append("retry row is not zero")
    oracle = float(rows["oracle"]["delta_acc"])
    for name, row in rows.items():
        if float(row["delta_acc"]) > oracle:
            problems.append(f"{name} delta_acc exceeds the oracle's")
    policy = rows["policy"]
    argv = [
        sys.executable, "-m", "gatedmem.cli", "ledger-check", f"n={policy['n']}",
        f"dacc={policy['delta_acc']}", f"hh={policy['help_hurt']}", f"p={policy['mcnemar_p']}",
    ]
    rc, _, _ = run_child(argv, log, env)
    if rc != 0 or log.read_text(encoding="utf-8").split()[-1:] != ["consistent"]:
        problems.append(f"ledger-check on the policy row: exit {rc}: {log.read_text().strip()}")
    return problems


def check_stage(stage: str, out: Path, world: dict, workload: Workload, env: dict, logs: Path) -> list[str]:
    d = out / stage
    try:
        if stage == "gen_world":
            table = json.loads((d / "outcome_table.json").read_text(encoding="utf-8"))
            if len(table) != int(world["n_examples"]):
                return [f"outcome table has {len(table)} rows, want {world['n_examples']}"]
        elif stage == "fit":
            manifest = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
            if not manifest.get("policy_hash") or not (d / "policy.kv").exists():
                return ["manifest has no policy hash or policy.kv is missing"]
        elif stage == "test":
            return check_ledger(d / "ledger.csv", env, logs / "ledger_check.log")
        elif stage == "counterfactual":
            audit = json.loads((d / "audit.json").read_text(encoding="utf-8"))
            problems = []
            if audit["decomposition_max_abs_error"] != 0:
                problems.append(f"decomposition error {audit['decomposition_max_abs_error']}")
            if not (audit["fixed_replay_identity_ok"] and audit["non_hit_bitwise_identical"]):
                problems.append("an audit identity flag is false")
            with open(d / "counterfactual_rows.jsonl", encoding="utf-8") as fh:
                n_rows = sum(1 for line in fh if line.strip())
            if n_rows != audit["n_rows"]:
                problems.append(f"{n_rows} counterfactual rows, audit says {audit['n_rows']}")
            return problems
        elif stage == "governance":
            report = json.loads((d / "governance.json").read_text(encoding="utf-8"))
            if len(report["rounds"]) != workload.governance_rounds:
                return [f"{len(report['rounds'])} governance rounds, want {workload.governance_rounds}"]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    return []


def digest(out: Path, stage: str) -> str:
    h = hashlib.sha256()
    for pattern in DIGESTED[stage]:
        for path in sorted(glob.glob(str(out / stage / pattern))):
            h.update(Path(path).name.encode() + b"\0")
            h.update(Path(path).read_bytes())
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# one pipeline
# ---------------------------------------------------------------------------

@dataclass
class StageResult:
    rc: int
    wall_s: float
    rss_mb: float
    problems: list
    digest: str
    bytes_written: int
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)


@dataclass
class Pipeline:
    traced: bool
    stages: dict = field(default_factory=dict)
    setup_s: list = field(default_factory=list)


def run_pipeline(workload, world, inputs: Path, work: Path, env: dict, traced: bool) -> Pipeline:
    out = work / "out"
    logs = work / "logs"
    shutil.rmtree(out, ignore_errors=True)
    logs.mkdir(parents=True, exist_ok=True)
    result = Pipeline(traced)
    for stage in STAGES:
        if not traced:
            result.setup_s.append(time_setup(world, env, logs / "setup.log"))
        args = stage_args(stage, workload, inputs, out)
        trace_path = logs / f"{stage}.trace.json"
        if traced:
            argv = [sys.executable, str(TRACER), str(trace_path), *args]
        else:
            argv = [sys.executable, "-m", "gatedmem.cli", *args]
        rc, wall, rss = run_child(argv, logs / f"{stage}.log", env)
        problems = [] if rc != 0 else check_stage(stage, out, world, workload, env, logs)
        if rc != 0:
            tail = (logs / f"{stage}.log").read_text(errors="replace").strip().splitlines()[-5:]
            problems.append(f"exit {rc}: " + " | ".join(tail))
        trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        stage_dir = out / stage
        result.stages[stage] = StageResult(
            rc, wall, rss, problems, digest(out, stage),
            dir_bytes(stage_dir) if stage_dir.exists() else 0, trace,
        )
    return result


def gate_determinism(pipelines: list[Pipeline]) -> None:
    """A stage whose result digest differs from the first run's fails."""
    first = pipelines[0]
    for k, p in enumerate(pipelines[1:], 2):
        for stage, res in p.stages.items():
            if res.digest != first.stages[stage].digest:
                kind = "traced" if p.traced != first.traced else "repeated"
                res.problems.append(f"{kind} run {k} outputs differ from run 1")


def time_setup(world: dict, env: dict, log: Path) -> float:
    rc, wall, _ = run_child([sys.executable, "-c", SETUP_CODE, json.dumps(world)], log, env)
    if rc != 0:
        raise RuntimeError(f"world set-up failed: {log.read_text()}")
    return wall


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(pipelines: list[Pipeline]) -> dict:
    # Single stage times are too noisy on a shared 2-CPU host to hold a bound
    # (README.md, "Noise"); the report prints them and --trace 1 reports them
    # as <stage>.wall_s.
    return {
        "setup_s": (statistics.median(t for p in pipelines for t in p.setup_s), "s"),
        "pipeline_s": (
            statistics.median(sum(r.wall_s for r in p.stages.values()) for p in pipelines), "s"
        ),
        "peak_rss_mb": (
            statistics.median(max(r.rss_mb for r in p.stages.values()) for p in pipelines), "MB"
        ),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced: Pipeline, traced: Pipeline) -> dict:
    metrics = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    for stage in STAGES:
        res = traced.stages[stage]
        trace = res.trace or {"layer_self_s": {}, "funcs": {}, "counters": {}}
        layer_self = trace["layer_self_s"]
        for layer in LAYERS:
            if layer == "cli":
                # interpreter start-up, imports and argument parsing are the CLI's
                value = res.wall_s - sum(v for k, v in layer_self.items() if k != "cli")
            else:
                value = layer_self.get(layer, 0.0)
            metrics[f"{stage}.{layer}.self_s"] = (value, "s")
        metrics[f"{stage}.wall_s"] = (untraced.stages[stage].wall_s, "s")
        metrics[f"{stage}.trace_overhead_s"] = (res.wall_s - untraced.stages[stage].wall_s, "s")
        for name, f in trace["funcs"].items():
            calls[name] = calls.get(name, 0) + f["calls"]
        for name, v in trace["counters"].items():
            counters[name] = counters.get(name, 0) + v

    c = counters.get
    steps, routed = c("controller.steps", 0), c("controller.routed", 0)
    metrics.update({
        "controller.steps": (steps, "count"),
        "controller.routed_ratio": (_ratio(routed, steps), "ratio"),
        "controller.accept_ratio": (_ratio(c("controller.accepted", 0), routed), "ratio"),
        "controller.budget_blocked_ratio": (_ratio(c("controller.budget_blocked", 0), steps), "ratio"),
        "retrieval.retrieve.calls": (c("retrieval.retrieve.calls", 0), "count"),
        "retrieval.retrieve.repeat_ratio": (
            _ratio(c("retrieval.retrieve.repeats", 0), c("retrieval.retrieve.calls", 0)), "ratio"
        ),
        "retrieval.embed_key.calls": (calls.get("retrieval.embed_key", 0), "count"),
        "worldsim.pair_draws.calls": (c("worldsim.pair_draws.calls", 0), "count"),
        "worldsim.pair_draws.repeat_ratio": (
            _ratio(c("worldsim.pair_draws.repeats", 0), c("worldsim.pair_draws.calls", 0)), "ratio"
        ),
        "worldsim.guard_results.calls": (calls.get("worldsim.World.guard_results", 0), "count"),
        "worldsim.guard_results.fail_ratio": (
            _ratio(c("worldsim.guard_results.failing", 0), calls.get("worldsim.World.guard_results", 0)),
            "ratio",
        ),
        "worldsim.decode.calls": (
            calls.get("worldsim.World.decode_baseline", 0) + calls.get("worldsim.World.decode_second", 0),
            "count",
        ),
        "util.derive_seed.calls": (calls.get("util.derive_seed", 0), "count"),
        "bank.freeze.calls": (calls.get("bank.MemoryBank.freeze", 0), "count"),
        "bank.append_evidence.calls": (calls.get("bank.MemoryBank.append_evidence", 0), "count"),
        "bank.retired": (c("bank.retired", 0), "count"),
        "stats.bootstrap_ci.calls": (calls.get("stats.bootstrap_ci", 0), "count"),
        "stats.bootstrap_ci.computed_bytes": (c("stats.bootstrap_ci.computed_bytes", 0), "B"),
        "stats.randomization_interaction_test.computed_bytes": (
            c("stats.randomization_interaction_test.computed_bytes", 0), "B"
        ),
        "protocol.counterfactual.hit_ratio": (
            _ratio(c("protocol.counterfactual.hit_rows", 0), c("protocol.counterfactual.rows", 0)), "ratio"
        ),
        "io.bytes_written": (sum(r.bytes_written for r in traced.stages.values()), "B"),
    })
    return metrics


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def provenance(env: dict, logs: Path) -> dict:
    rc, _, _ = run_child(
        [sys.executable, "-c", PROVENANCE_CODE], logs / "provenance.log", dict(env, GATEDMEM_KERNELS="auto")
    )
    text = (logs / "provenance.log").read_text()
    info = json.loads(text.splitlines()[-1]) if rc == 0 else {"error": text.strip()}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    info.update(
        git_commit=commit,
        nproc=len(os.sched_getaffinity(0)),
        blas_env={k: os.environ.get(k) for k in BLAS_ENV},
    )
    return info


def print_report(args, prov: dict, pipelines: list[Pipeline], metrics: dict) -> None:
    setups = sum(len(p.setup_s) for p in pipelines)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(pipelines)} pipeline runs, {setups} set-up samples")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for k, p in enumerate(pipelines, 1):
        for stage, r in p.stages.items():
            status = "FAILED " + "; ".join(r.problems) if r.failed else "ok"
            print(
                f"run {k}{' traced' if p.traced else ''} {stage:15s} {r.wall_s:8.3f} s "
                f"{r.rss_mb:8.1f} MB  sha256 {r.digest[:16]}  {status}"
            )
    if pipelines[-1].traced:
        funcs: dict[str, list] = {}
        for r in pipelines[-1].stages.values():
            for name, f in (r.trace or {}).get("funcs", {}).items():
                acc = funcs.setdefault(name, [0, 0.0, 0.0])
                acc[0] += f["calls"]
                acc[1] += f["inclusive_s"]
                acc[2] += f["self_s"]
        print(f"{'function (all stages, traced)':52s} {'calls':>9s} {'incl_s':>8s} {'self_s':>8s}")
        for name, (n, incl, own) in sorted(funcs.items(), key=lambda kv: -kv[1][2])[:25]:
            print(f"{name:52s} {n:9d} {incl:8.3f} {own:8.3f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gatedmem" / "cli.py").is_file():
        print(f"error: no gatedmem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    env = child_env()
    try:
        world = make_inputs(workload, args.seed, work / "inputs")
        logs = work / "logs"
        logs.mkdir(parents=True)
        prov = provenance(env, logs)
        pipelines: list[Pipeline] = []
        if args.trace:
            for traced in (False, True):
                pipelines.append(run_pipeline(workload, world, work / "inputs", work, env, traced))
        else:
            start = time.perf_counter()
            while len(pipelines) < MIN_REPEATS or time.perf_counter() - start < args.seconds:
                pipelines.append(run_pipeline(workload, world, work / "inputs", work, env, False))
        gate_determinism(pipelines)
        metrics = per_layer(*pipelines) if args.trace else end_to_end(pipelines)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is using it, or it is already gone
            pass

    attempted = sum(len(p.stages) for p in pipelines)
    failed = sum(r.failed for p in pipelines for r in p.stages.values())
    print_report(args, prov, pipelines, metrics)
    print(f"failed_stage_ratio = {failed / attempted} ({failed} of {attempted} stages)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
