"""Command-line entry points for the gated-memory harness.

Subcommands:
    gen-world       generate a world from a flat key-value spec; dump banks
                    and the outcome table
    fit             grid-search on the fit split, freeze policy + banks,
                    write the manifest
    test            frozen paired evaluation against the manifest; write the
                    ledger, traces, and confidence-bin CSV
    counterfactual  free-rerun and fixed-retrieval replay of content edits
    governance      evidence/retirement rounds on the fit split
    ledger-check    solve a reported (n, dacc, HH, p) row for integer (h, u)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .controller import PolicyConfig, select_threshold_percentile
from .errors import AuditFailure, ProtocolViolation
from .protocol import (
    FIXED_BUDGET_K,
    FreezeManifest,
    ledger_check,
    run_counterfactual,
    run_fit_stage,
    run_governance_loop,
    run_pooled_test,
    split_indices,
    write_counterfactual_rows,
    write_outcome_table,
)
from .retrieval import load_edits
from .util import parse_kv_file, parse_value, write_json, write_kv_file
from .worldsim import WorldSpec, generate_world

GRID_SEP = "|"  # alternatives within one grid value; commas stay inside values


def _load_spec(args) -> WorldSpec:
    return WorldSpec.from_flat(parse_kv_file(args.config))


def _load_world(args):
    return generate_world(_load_spec(args))


def _expand_grid(flat: dict[str, str], path: str) -> list[dict[str, str]]:
    # cross product of | alternatives; made PolicyConfigs later because
    # tau_percentile needs the world's fit confidences
    if not flat:
        raise ValueError(f"{path}: no grid keys")
    keys = sorted(flat)
    combos: list[dict[str, str]] = [{}]
    for key in keys:
        options = [v.strip() for v in flat[key].split(GRID_SEP)]
        repeated = sorted({v for v in options if options.count(v) > 1})
        if repeated:
            raise ValueError(f"{key}: repeated grid alternatives {repeated}")
        combos = [dict(c, **{key: opt}) for c in combos for opt in options]
    return combos


def _resolve_candidates(world, fit_ids, combos) -> list[PolicyConfig]:
    out = []
    for combo in combos:
        combo = dict(combo)
        pct = combo.pop("tau_percentile", None)
        if pct is not None and "tau" in combo:
            raise ValueError("grid sets both tau and tau_percentile; tau_percentile chooses tau, so set one of them")
        policy = PolicyConfig.from_flat(combo)
        if pct is not None:
            pct = parse_value("tau_percentile", float, pct)
            tau = select_threshold_percentile(world.baseline_pass(fit_ids)[1], pct)
            policy = replace(policy, tau=tau)
        out.append(policy)
    return out


def cmd_gen_world(args) -> int:
    world = _load_world(args)
    os.makedirs(args.out, exist_ok=True)
    write_kv_file(os.path.join(args.out, "world.kv"), world.spec.to_flat())
    for kind, bank in world.banks.items():
        bank.save(os.path.join(args.out, f"bank_{kind}.jsonl"))
    rows = np.arange(world.spec.n_examples)
    passes = world.decode_contexts(rows, world.snapshots())
    write_outcome_table(world.baseline_pass(rows)[0], passes, os.path.join(args.out, "outcome_table.json"))
    print(f"world {world.spec.world_hash()[:12]} written to {args.out}")
    return 0


def cmd_fit(args) -> int:
    world = _load_world(args)
    combos = _expand_grid(parse_kv_file(args.grid), args.grid) if args.grid else [{}]
    # the fit side of the split run_fit_stage draws at its defaults, freed before that draw
    candidates = _resolve_candidates(world, split_indices(world.spec.n_examples)[0], combos)
    manifest, policy, snapshots = run_fit_stage(world, candidates, governance_rounds=args.governance_rounds)
    os.makedirs(args.out, exist_ok=True)
    manifest.save(os.path.join(args.out, "manifest.json"))
    write_kv_file(os.path.join(args.out, "policy.kv"), policy.to_flat())
    for kind, bank in world.banks.items():
        bank.save(os.path.join(args.out, f"bank_{kind}.jsonl"))
    print(f"frozen policy {policy.config_hash()[:12]} -> {args.out}/manifest.json")
    return 0


def cmd_test(args) -> int:
    spec = _load_spec(args)
    manifest = FreezeManifest.load(args.manifest)
    rows, _ = run_pooled_test(spec, manifest, n_seeds=args.pool_seeds, out_dir=args.out)
    if spec.steps_per_episode <= FIXED_BUDGET_K:
        print(f"note: steps_per_episode = {spec.steps_per_episode} is at most fixed_budget's cap of {FIXED_BUDGET_K} routed "
              "steps per episode, so the cap cannot bind and the fixed_budget row equals always_retrieve's", file=sys.stderr)
    for row in rows:
        print(row.as_csv())
    return 0


def cmd_counterfactual(args) -> int:
    world = _load_world(args)
    manifest = FreezeManifest.load(args.manifest)
    edited_ids = load_edits(args.edits)
    try:
        rows, audit = run_counterfactual(world, manifest, edited_ids)
    except AuditFailure as exc:  # audit.json then holds the failing row alone
        _write_audit(args.out, exc.row)
        raise
    inert = sorted(set(edited_ids) - {i for bank in world.banks.values() for i in bank.active_columns()[0]})
    if inert:  # never retrieved, so never hit; the run still replays the rest
        print(f"note: {len(inert)} edits name entries the frozen membership retired, "
              f"which no mode retrieves: {', '.join(inert)}", file=sys.stderr)
    _write_audit(args.out, audit)
    write_counterfactual_rows(rows, os.path.join(args.out, "counterfactual_rows.jsonl"))
    print(json.dumps(audit, sort_keys=True))
    return 0


def _write_audit(out: str, audit: dict) -> None:
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "audit.json"), audit)


def cmd_governance(args) -> int:
    world = _load_world(args)
    fit_ids, _ = split_indices(world.spec.n_examples)
    policy = (
        PolicyConfig.from_flat(parse_kv_file(args.policy)) if args.policy else PolicyConfig()
    )
    report = run_governance_loop(world, policy, args.rounds, fit_ids)
    os.makedirs(args.out, exist_ok=True)
    payload = {
        "selected_iteration": report.selected_iteration,
        "baseline_accuracy": report.baseline_accuracy,
        "oracle_accuracy": report.oracle_accuracy,
        "rounds": [
            {
                "index": r.index,
                "fit_accuracy": r.fit_accuracy,
                "gap_close": r.gap_close,
                "retired_ids": r.retired_ids,
                "bank_hashes": r.bank_hashes,
            }
            for r in report.rounds
        ],
    }
    write_json(os.path.join(args.out, "governance.json"), payload)
    for r in report.rounds:
        gap = "absent" if r.gap_close is None else f"{r.gap_close:.4f}"
        print(f"round {r.index}: fit_acc={r.fit_accuracy:.4f} gap_close={gap} retired={len(r.retired_ids)}")
    print(f"selected iteration: {report.selected_iteration}")
    return 0


def cmd_ledger_check(args) -> int:
    types = {"n": int, "dacc": float, "hh": int, "p": float}
    params = {}
    for item in args.row:
        if "=" not in item:
            print(f"error: expected key=value, got {item!r}", file=sys.stderr)
            return 2
        k, v = (t.strip() for t in item.split("=", 1))
        if k not in types or k in params:
            print(f"error: ledger-check: {'repeated' if k in params else 'unknown'} key {k!r}", file=sys.stderr)
            return 2
        params[k] = v
    missing = sorted(types.keys() - params.keys())
    if missing:
        print(f"error: ledger-check needs n=, dacc=, hh=, p= (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    try:
        row = {k: parse_value(k, tp, params[k]) for k, tp in types.items()}
        solution = ledger_check(row["n"], row["dacc"], row["hh"], row["p"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if solution is None:
        print("inconsistent")
        return 1
    h, u, p_exact = solution
    print(f"h={h} u={u} p={p_exact:.6g} consistent")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gatedmem")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, manifest=False, edits=False):
        p.add_argument("--config", required=True, help="world spec, flat key=value file")
        p.add_argument("--out", default="out", help="output directory")
        if manifest:
            p.add_argument("--manifest", required=True, help="freeze manifest path")
        if edits:
            p.add_argument("--edits", required=True, help="edits file, one json object per line")

    p = sub.add_parser("gen-world", help="generate and dump a world")
    common(p)
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("fit", help="fit-stage selection and freeze")
    common(p)
    p.add_argument("--grid", default=None, help="policy grid, flat key=value with | alternatives")
    p.add_argument("--governance-rounds", type=int, default=0)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("test", help="frozen test-stage evaluation, pooled over seeds")
    common(p, manifest=True)
    p.add_argument(
        "--pool-seeds", type=int, default=3,
        help="pool paired statistics over this many sibling-seed worlds (default 3)",
    )
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("counterfactual", help="free vs fixed-retrieval edit replay")
    common(p, manifest=True, edits=True)
    p.set_defaults(func=cmd_counterfactual)

    p = sub.add_parser("governance", help="evidence/retirement rounds on the fit split")
    common(p)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--policy", default=None, help="policy config, flat key=value file")
    p.set_defaults(func=cmd_governance)

    p = sub.add_parser("ledger-check", help="solve a reported row for integer (h, u)")
    p.add_argument("row", nargs="+", help="n=<int> dacc=<float> hh=<int> p=<float>")
    p.set_defaults(func=cmd_ledger_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on unknown subcommands
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ProtocolViolation, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
