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

from .controller import PolicyConfig
from .errors import ProtocolViolation
from .protocol import (
    FreezeManifest,
    apply_recorded_membership,
    ledger_check,
    resolve_tau_percentile,
    run_counterfactual,
    run_fit_stage,
    run_governance_loop,
    run_pooled_test,
    split_indices,
    write_counterfactual_rows,
)
from .retrieval import load_edits
from .util import parse_kv_file, parse_value, write_kv_file
from .worldsim import WorldSpec, generate_world

GRID_SEP = "|"  # alternatives within one grid value; commas stay inside values


def _load_world(args):
    flat = parse_kv_file(args.config)
    spec = WorldSpec.from_flat(flat)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    return generate_world(spec)


def _expand_grid(flat: dict[str, str]) -> list[dict[str, str]]:
    # cross product of | alternatives; resolved to PolicyConfig later because
    # tau_percentile needs the world's fit confidences
    keys = sorted(flat)
    combos: list[dict[str, str]] = [{}]
    for key in keys:
        options = [v.strip() for v in flat[key].split(GRID_SEP)]
        combos = [dict(c, **{key: opt}) for c in combos for opt in options]
    return combos


def _resolve_candidates(world, fit_ids, combos) -> list[PolicyConfig]:
    out = []
    for combo in combos:
        combo = dict(combo)
        pct = combo.pop("tau_percentile", None)
        policy = PolicyConfig.from_flat(combo)
        if pct is not None:
            pct = parse_value("tau_percentile", float, pct)
            tau = resolve_tau_percentile(world, fit_ids, pct, policy.confidence_signal)
            policy = replace(policy, tau=tau)
        out.append(policy)
    return out


def cmd_gen_world(args) -> int:
    world = _load_world(args)
    os.makedirs(args.out, exist_ok=True)
    write_kv_file(os.path.join(args.out, "world.kv"), world.spec.to_flat())
    for kind, bank in world.banks.items():
        bank.save(os.path.join(args.out, f"bank_{kind}.jsonl"))
    table = world.outcome_table(world.snapshots())
    correct = {f"{ctx}/{ver}": v.tolist() for (ctx, ver), v in table.second_correct.items()}
    confs = {ctx: v.tolist() for ctx, v in table.confidences.items()}
    # the bytes of json.dump(rows, fh, sort_keys=True), a row per encode call:
    # only a one-shot encode uses the C encoder, and one for the whole table
    # would hold all of it in memory
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(os.path.join(args.out, "outcome_table.json"), "w", encoding="utf-8") as fh:
        fh.write("[")
        for i, base in enumerate(table.baseline_correct.tolist()):
            row = {
                "example_id": i,
                "baseline_correct": base,
                "second_correct_by_context": {k: v[i] for k, v in correct.items()},
                "confidences": {k: round(v[i], 10) for k, v in confs.items()},
            }
            fh.write((", " if i else "") + encode(row))
        fh.write("]\n")
    print(f"world {world.spec.world_hash()[:12]} written to {args.out}")
    return 0


def cmd_fit(args) -> int:
    world = _load_world(args)
    fit_ids, test_ids = split_indices(world.spec.n_examples, args.fit_fraction, args.split_seed)
    combos = _expand_grid(parse_kv_file(args.grid)) if args.grid else [{}]
    candidates = _resolve_candidates(world, fit_ids, combos)
    manifest, policy, snapshots = run_fit_stage(
        world, candidates, fit_ids, test_ids, governance_rounds=args.governance_rounds
    )
    os.makedirs(args.out, exist_ok=True)
    manifest.save(os.path.join(args.out, "manifest.json"))
    write_kv_file(os.path.join(args.out, "policy.kv"), policy.to_flat())
    for kind, bank in world.banks.items():
        bank.save(os.path.join(args.out, f"bank_{kind}.jsonl"))
    print(f"frozen policy {policy.config_hash()[:12]} -> {args.out}/manifest.json")
    return 0


def cmd_test(args) -> int:
    if not args.manifest or not os.path.exists(args.manifest):
        print("error: test requires a fit manifest (--manifest)", file=sys.stderr)
        return 2
    world = _load_world(args)
    manifest = FreezeManifest.load(args.manifest)
    policy = PolicyConfig.from_flat(manifest.selection_record["policy"])
    apply_recorded_membership(world, manifest)
    os.makedirs(args.out, exist_ok=True)
    rows, _ = run_pooled_test(world, manifest, policy, n_seeds=args.pool_seeds, out_dir=args.out)
    for row in rows:
        print(row.as_csv())
    return 0


def cmd_counterfactual(args) -> int:
    if not args.manifest or not os.path.exists(args.manifest):
        print("error: counterfactual requires a fit manifest (--manifest)", file=sys.stderr)
        return 2
    if not args.edits:
        print("error: counterfactual requires --edits", file=sys.stderr)
        return 2
    world = _load_world(args)
    manifest = FreezeManifest.load(args.manifest)
    policy = PolicyConfig.from_flat(manifest.selection_record["policy"])
    apply_recorded_membership(world, manifest)
    snapshots = world.snapshots()
    edits = load_edits(args.edits)
    rows, audit = run_counterfactual(world, manifest, policy, snapshots, edits)
    os.makedirs(args.out, exist_ok=True)
    write_counterfactual_rows(rows, os.path.join(args.out, "counterfactual_rows.jsonl"))
    with open(os.path.join(args.out, "audit.json"), "w", encoding="utf-8") as fh:
        json.dump(audit, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(audit, sort_keys=True))
    return 0


def cmd_governance(args) -> int:
    world = _load_world(args)
    fit_ids, _ = split_indices(world.spec.n_examples, args.fit_fraction, args.split_seed)
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
    with open(os.path.join(args.out, "governance.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for r in report.rounds:
        gap = "absent" if r.gap_close is None else f"{r.gap_close:.4f}"
        print(f"round {r.index}: fit_acc={r.fit_accuracy:.4f} gap_close={gap} retired={len(r.retired_ids)}")
    print(f"selected iteration: {report.selected_iteration}")
    return 0


def cmd_ledger_check(args) -> int:
    params = {}
    for item in args.row:
        if "=" not in item:
            print(f"error: expected key=value, got {item!r}", file=sys.stderr)
            return 2
        k, v = item.split("=", 1)
        params[k.strip()] = v.strip()
    try:
        n = int(params["n"])
        dacc = float(params["dacc"])
        hh = int(params["hh"])
        p = float(params["p"])
    except KeyError as missing:
        print(f"error: ledger-check needs n=, dacc=, hh=, p= (missing {missing})", file=sys.stderr)
        return 2
    solution = ledger_check(n, dacc, hh, p)
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
        p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
        p.add_argument("--out", default="out", help="output directory")
        if manifest:
            p.add_argument("--manifest", default=None, help="freeze manifest path")
        if edits:
            p.add_argument("--edits", default=None, help="edits file, one json object per line")

    p = sub.add_parser("gen-world", help="generate and dump a world")
    common(p)
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("fit", help="fit-stage selection and freeze")
    common(p)
    p.add_argument("--grid", default=None, help="policy grid, flat key=value with | alternatives")
    p.add_argument("--fit-fraction", type=float, default=0.5)
    p.add_argument("--split-seed", type=int, default=0)
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
    p.add_argument("--fit-fraction", type=float, default=0.5)
    p.add_argument("--split-seed", type=int, default=0)
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
