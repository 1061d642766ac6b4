"""CLI subcommands drive the full protocol through files."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gatedmem
from conftest import count_query_draws, save_edits
from gatedmem import protocol, worldsim
from gatedmem.cli import build_parser, main
from gatedmem.controller import PolicyConfig
from gatedmem.protocol import split_indices
from gatedmem.util import parse_kv_file, write_kv_file


@pytest.fixture()
def world_config(tmp_path):
    path = tmp_path / "world.kv"
    path.write_text(
        "n_examples = 200\n"
        "base_accuracy = 0.74\n"
        "seed = 5\n"
        "topic_count = 10\n"
    )
    return str(path)


@pytest.fixture()
def grid_config(tmp_path):
    path = tmp_path / "grid.kv"
    path.write_text(
        "tau_percentile = 35\n"
        "margin_m = 0.0|0.05\n"
        "bank_policy = choose|gate_only\n"
        "primary_bank = rule\n"
    )
    return str(path)


OUTCOME_ROW_KEYS = {"example_id", "baseline_correct", "baseline_confidence", "injects", "second_correct", "confidences"}


def test_gen_world_writes_dump(tmp_path, world_config, capsys):
    out = str(tmp_path / "w")
    assert main(["gen-world", "--config", world_config, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "bank_rule.jsonl"))
    assert os.path.exists(os.path.join(out, "bank_exemplar.jsonl"))
    table = json.loads(Path(out, "outcome_table.json").read_text())
    assert [row["example_id"] for row in table] == list(range(200))
    # a row is its documented keys, each map keyed by the oracle contexts; injects is whether
    # retrieving from the context's banks fills any slot
    for row in table:
        assert set(row) == OUTCOME_ROW_KEYS
        assert all(list(row[k]) == sorted(worldsim.ORACLE_CONTEXTS) for k in ("injects", "second_correct", "confidences"))
    world = gatedmem.generate_world(gatedmem.WorldSpec.from_flat(parse_kv_file(world_config)))
    rows, snaps = np.arange(200), world.snapshots()
    for context, banks in worldsim.ORACLE_CONTEXTS.items():
        injects = world.injected(rows, snaps, banks)[1].any(axis=1)
        assert [row["injects"][context] for row in table] == injects.tolist()


def test_gen_world_and_the_oracle_read_one_context_constant(tmp_path, world_config, capsys, monkeypatch):
    # narrowing ORACLE_CONTEXTS narrows both the outcome table's maps and the oracle's candidates
    monkeypatch.setattr(worldsim, "ORACLE_CONTEXTS", {"exemplar": ("exemplar",)})
    out = tmp_path / "w"
    assert main(["gen-world", "--config", world_config, "--out", str(out)]) == 0
    table = json.loads((out / "outcome_table.json").read_text())
    assert all(list(row[k]) == ["exemplar"] for row in table for k in ("injects", "second_correct", "confidences"))
    world = gatedmem.generate_world(gatedmem.WorldSpec.from_flat(parse_kv_file(world_config)))
    rows = np.arange(world.spec.n_examples)
    _, routed, accepted = protocol.evaluate_oracle(world, world.snapshots(), rows)
    assert routed.tolist() == [row["injects"]["exemplar"] for row in table]
    wins = [row["injects"]["exemplar"] and row["second_correct"]["exemplar"] and not row["baseline_correct"] for row in table]
    assert accepted.tolist() == wins


def test_fit_then_test_flow(tmp_path, world_config, grid_config, capsys):
    fit_out = str(tmp_path / "fit")
    test_out = str(tmp_path / "test")
    assert main(["fit", "--config", world_config, "--grid", grid_config, "--out", fit_out]) == 0
    manifest = os.path.join(fit_out, "manifest.json")
    assert os.path.exists(manifest)
    assert main(["test", "--config", world_config, "--manifest", manifest, "--out", test_out]) == 0
    ledger = Path(test_out, "ledger.csv").read_text().splitlines()
    assert ledger[0].startswith("comparison,")
    assert any(line.startswith("retry vs baseline") for line in ledger)


def test_fit_on_the_shipped_grid_draws_each_fit_row_at_most_once(tmp_path, capsys, monkeypatch):
    # the shipped grid runs single-bank candidates before dual ones; every read ranks both banks,
    # so a routed fit row's query embedding is drawn once, whichever bank reads it first
    drawn = count_query_draws(monkeypatch)
    configs = Path(__file__).parents[1] / "configs"
    world, grid, out = configs / "world.kv", configs / "grid.kv", tmp_path / "fit"
    assert main(["fit", "--config", str(world), "--grid", str(grid), "--out", str(out)]) == 0
    fit_ids, _ = split_indices(int(parse_kv_file(str(world))["n_examples"]))
    rows = np.concatenate(drawn)
    assert len(rows) and np.isin(rows, fit_ids).all()
    assert np.bincount(rows).max() == 1


@pytest.mark.parametrize("steps_per_episode", [1, 2, 3])
def test_test_says_when_fixed_budget_cannot_bind(tmp_path, grid_config, capsys, steps_per_episode):
    config = tmp_path / "world.kv"
    config.write_text(f"n_examples = 240\nseed = 5\ntopic_count = 10\nsteps_per_episode = {steps_per_episode}\n")
    fit_out, test_out = str(tmp_path / "fit"), str(tmp_path / "test")
    assert main(["fit", "--config", str(config), "--grid", grid_config, "--out", fit_out]) == 0
    capsys.readouterr()
    manifest = os.path.join(fit_out, "manifest.json")
    assert main(["test", "--config", str(config), "--manifest", manifest, "--out", test_out]) == 0
    err = capsys.readouterr().err
    ledger = Path(test_out, "ledger.csv").read_text().splitlines()[1:]
    rows = {line.split(" vs ")[0]: line.split(",", 1)[1] for line in ledger}
    if steps_per_episode <= 2:
        assert err == (
            f"note: steps_per_episode = {steps_per_episode} is at most fixed_budget's cap of 2 routed steps per "
            "episode, so the cap cannot bind and the fixed_budget row equals always_retrieve's\n"
        )
        assert rows["fixed_budget"] == rows["always_retrieve"]
    else:
        assert err == ""
        assert rows["fixed_budget"] != rows["always_retrieve"]


def test_test_stage_leaves_numpy_ma_unimported(tmp_path, world_config, grid_config, capsys):
    fit_out = str(tmp_path / "fit")
    assert main(["fit", "--config", world_config, "--grid", grid_config, "--out", fit_out]) == 0
    argv = ["test", "--config", world_config, "--manifest", os.path.join(fit_out, "manifest.json"), "--out", str(tmp_path / "t")]
    script = f"import sys\nfrom gatedmem.cli import main\nassert main({argv!r}) == 0\nprint('numpy.ma' in sys.modules)"
    src = str(Path(gatedmem.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines()[-1] == "False"
    assert os.path.exists(tmp_path / "t" / "traces.jsonl")


def test_test_without_manifest_errors(tmp_path, world_config, capsys):
    code = main(["test", "--config", world_config, "--out", str(tmp_path / "t")])
    assert code != 0
    assert "manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "stage, missing",
    [("test", "--manifest"), ("counterfactual", "--manifest"), ("counterfactual", "--edits")],
)
def test_nonexistent_input_path_exits_1_naming_the_path(tmp_path, world_config, grid_config, capsys, stage, missing):
    fit_out = tmp_path / "fit"
    assert main(["fit", "--config", world_config, "--grid", grid_config, "--out", str(fit_out)]) == 0
    save_edits(["E000"], str(tmp_path / "edits.jsonl"))
    inputs = {"--manifest": str(fit_out / "manifest.json"), "--edits": str(tmp_path / "edits.jsonl")}
    inputs[missing] = str(tmp_path / "nosuch.json")
    if stage == "test":
        del inputs["--edits"]
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [stage, "--config", world_config, *(a for item in inputs.items() for a in item), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "nosuch.json") in err
    assert not out.exists()


def test_test_with_tampered_manifest_errors(tmp_path, world_config, grid_config, capsys):
    fit_out = str(tmp_path / "fit")
    main(["fit", "--config", world_config, "--grid", grid_config, "--out", fit_out])
    manifest_path = os.path.join(fit_out, "manifest.json")
    raw = json.loads(Path(manifest_path).read_text())
    raw["selection_record"]["policy"]["tau"] = "0.99"  # retune after freeze
    Path(manifest_path).write_text(json.dumps(raw))
    code = main(["test", "--config", world_config, "--manifest", manifest_path, "--out", str(tmp_path / "t")])
    assert code != 0


def test_counterfactual_flow(tmp_path, world_config, grid_config, capsys):
    fit_out = str(tmp_path / "fit")
    cf_out = str(tmp_path / "cf")
    main(["fit", "--config", world_config, "--grid", grid_config, "--out", fit_out])
    edits_path = str(tmp_path / "edits.jsonl")
    save_edits(["E000", "E001"], edits_path)
    code = main(
        [
            "counterfactual",
            "--config", world_config,
            "--manifest", os.path.join(fit_out, "manifest.json"),
            "--edits", edits_path,
            "--out", cf_out,
        ]
    )
    assert code == 0
    audit = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert audit["decomposition_max_abs_error"] == 0.0
    rows = Path(cf_out, "counterfactual_rows.jsonl").read_text().splitlines()
    assert len(rows) == audit["n_rows"]


def test_counterfactual_names_edits_of_retired_entries(tmp_path, capsys):
    world = tmp_path / "world.kv"
    world.write_text("n_examples = 200\nseed = 0\ntopic_count = 10\ntoxic_entry_rate = 0.3\ntoxic_hurt_prob = 0.95\n")
    grid = tmp_path / "grid.kv"
    grid.write_text("tau = 0.95\nmargin_m = -10.0\nbank_policy = dual\n")
    fit_out = tmp_path / "fit"
    assert main(["fit", "--config", str(world), "--grid", str(grid), "--governance-rounds", "3", "--out", str(fit_out)]) == 0
    active = json.loads((fit_out / "manifest.json").read_text())["selection_record"]["active_ids"]
    retired = sorted({f"E{i:03d}" for i in range(100)} - set(active["exemplar"]))[:2]
    assert len(retired) == 2
    outputs = {}
    for name, edited in (("cf", ["E000", *retired]), ("cf-active", ["E000"])):
        save_edits(edited, str(tmp_path / f"{name}.jsonl"))
        capsys.readouterr()
        assert main([
            "counterfactual", "--config", str(world), "--manifest", str(fit_out / "manifest.json"),
            "--edits", str(tmp_path / f"{name}.jsonl"), "--out", str(tmp_path / name),
        ]) == 0
        outputs[name] = capsys.readouterr()
    assert outputs["cf"].err == (
        f"note: 2 edits name entries the frozen membership retired, which no mode retrieves: {', '.join(retired)}\n"
    )
    assert outputs["cf-active"].err == ""
    # an inert edit never hits, so the rows are those of the active edit alone
    assert outputs["cf"].out == outputs["cf-active"].out
    rows = [(tmp_path / d / "counterfactual_rows.jsonl").read_bytes() for d in ("cf", "cf-active")]
    assert rows[0] == rows[1]


def _tampered_counterfactual(tmp_path, world_config, grid_config, monkeypatch, tamper):
    """(exit code, audit.json) of `counterfactual` (one edit, E000) when each fixed replay replays
    tamper(world, frozen, s) in place of the run it was given, s the first step with a frozen identity."""
    fit_out = str(tmp_path / "fit")
    assert main(["fit", "--config", world_config, "--grid", grid_config, "--out", fit_out]) == 0
    edits_path = str(tmp_path / "edits.jsonl")
    save_edits(["E000"], edits_path)
    run_steps = protocol.run_steps

    def tampered(world, policy, snapshots, example_ids, version="original", edited_ids=(), frozen=None):
        if frozen is not None:
            frozen = tamper(world, frozen, int(np.flatnonzero(frozen.deciding_injection()[1].any(axis=1))[0]))
        return run_steps(world, policy, snapshots, example_ids, version, edited_ids, frozen)

    monkeypatch.setattr(protocol, "run_steps", tampered)
    code = main(
        [
            "counterfactual", "--config", world_config, "--manifest", os.path.join(fit_out, "manifest.json"),
            "--edits", edits_path, "--out", str(tmp_path / "cf"),
        ]
    )
    assert not os.path.exists(tmp_path / "cf" / "counterfactual_rows.jsonl")
    return code, json.loads((tmp_path / "cf" / "audit.json").read_text(encoding="utf-8"))


def test_tampered_fixed_replay_exits_1_naming_the_query(tmp_path, world_config, grid_config, capsys, monkeypatch):
    tampered = []

    def drop_one_entry(world, frozen, s):
        # the fixed replay of the first query with a frozen identity injects one entry fewer
        filled = frozen.filled.copy()
        row = filled[s, frozen.deciding[s]]
        names = [world.entry_ids[c] for c in frozen.columns[s, frozen.deciding[s]][row].tolist()]
        row[np.flatnonzero(row)[-1]] = False
        tampered.append((int(frozen.example_ids[s]), names))
        return replace(frozen, filled=filled)

    code, audit = _tampered_counterfactual(tmp_path, world_config, grid_config, monkeypatch, drop_one_entry)
    err = capsys.readouterr().err
    query, names = tampered[0]
    assert code == 1
    assert err.startswith(f"error: fixed replay of query {query} (repair) injected (")
    assert err.count("\n") == 1 and "Traceback" not in err
    # audit.json holds the failing row alone
    assert audit == {
        "check": "fixed_replay_identity_ok", "query_id": query, "version": "repair", "expected": names, "got": names[:-1],
    }


def test_substituted_fixed_replay_column_exits_1_naming_the_query(
    tmp_path, world_config, grid_config, capsys, monkeypatch
):
    tampered = []

    def swap_one_column(world, frozen, s):
        # the fixed replay of the first query with a frozen identity injects another entry in its
        # first slot: the filled mask, and so the number of entries injected, stay as they were
        columns, filled, _ = frozen.deciding_injection()
        a = frozen.deciding[s]
        swapped = frozen.columns.copy()
        slot = int(np.flatnonzero(frozen.filled[s, a])[0])
        swapped[s, a, slot] = (swapped[s, a, slot] + 1) % len(world.entry_ids)
        names = [tuple(world.entry_ids[c] for c in cols[s][filled[s]].tolist()) for cols in (columns, swapped[:, a])]
        tampered.append((int(frozen.example_ids[s]), *names))
        return replace(frozen, columns=swapped)

    code, audit = _tampered_counterfactual(tmp_path, world_config, grid_config, monkeypatch, swap_one_column)
    err = capsys.readouterr().err
    query, frozen_names, swapped_names = tampered[0]
    assert frozen_names != swapped_names and len(frozen_names) == len(swapped_names)
    assert code == 1
    assert err == f"error: fixed replay of query {query} (repair) injected {swapped_names}, frozen was {frozen_names}\n"
    assert (audit["query_id"], audit["expected"], audit["got"]) == (query, list(frozen_names), list(swapped_names))


def _write_edits(path, edits) -> None:
    """An edits file of (entry_id, edit_kind, new_payload) lines."""
    lines = [json.dumps({"entry_id": e, "edit_kind": k, "new_payload": p}) for e, k, p in edits]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("setup", ["shipped", "governed-multi-step"])
def test_edit_kind_and_payload_do_not_change_the_output(tmp_path, capsys, setup):
    # every edited entry is replayed as both repair and corrupt, so only the entry ids decide the run
    if setup == "shipped":
        configs = Path(__file__).parents[1] / "configs"
        world, fit_args = configs / "world.kv", ["--grid", str(configs / "grid.kv")]
    else:
        world = tmp_path / "world.kv"
        world.write_text(
            "n_examples = 200\nseed = 0\nsteps_per_episode = 4\ntopic_count = 10\n"
            "toxic_entry_rate = 0.3\ntoxic_hurt_prob = 0.95\n"
        )
        grid = tmp_path / "grid.kv"
        grid.write_text("tau = 0.95\nmargin_m = -10.0\nbank_policy = dual\nbudget_B = 2\n")
        fit_args = ["--grid", str(grid), "--governance-rounds", "3"]
    fit_out = tmp_path / "fit"
    assert main(["fit", "--config", str(world), *fit_args, "--out", str(fit_out)]) == 0
    active = json.loads((fit_out / "manifest.json").read_text())["selection_record"]["active_ids"]
    edited = ["E000", "E003", "R001", "R004"]
    if setup != "shipped":
        retired = sorted({f"E{i:03d}" for i in range(100)} - set(active["exemplar"]))[:2]
        assert len(retired) == 2
        edited += retired
    variants = {
        "repair": [(e, "repair", f"repair version of {e}") for e in edited],
        "corrupt": [(e, "corrupt", f"corrupt version of {e}") for e in edited],
        "mixed": [(e, ("corrupt", "repair")[i % 2], "" if i % 3 else "\u00e9dit\n" * i) for i, e in enumerate(edited)],
    }
    outputs = {}
    for name, edits in variants.items():
        _write_edits(tmp_path / f"{name}.jsonl", edits)
        capsys.readouterr()
        out = tmp_path / f"cf-{name}"
        assert main([
            "counterfactual", "--config", str(world), "--manifest", str(fit_out / "manifest.json"),
            "--edits", str(tmp_path / f"{name}.jsonl"), "--out", str(out),
        ]) == 0
        printed = capsys.readouterr()
        files = [(out / f).read_bytes() for f in ("audit.json", "counterfactual_rows.jsonl")]
        outputs[name] = (printed.out, printed.err, *files)
    assert outputs["repair"] == outputs["corrupt"] == outputs["mixed"]
    audit = json.loads(outputs["repair"][2])
    assert audit["n_hit"] > 0 and audit["n_non_hit"] > 0  # not vacuous: the edits hit routed rows
    inert = sorted(set(edited) - set(active["rule"]) - set(active["exemplar"]))
    assert (len(inert) >= 2) == (setup != "shipped")  # the governed manifest retired some edited entries
    assert outputs["repair"][1] == (
        f"note: {len(inert)} edits name entries the frozen membership retired, which no mode retrieves: {', '.join(inert)}\n"
        if inert else ""
    )


def test_governance_flow(tmp_path, world_config, capsys):
    out = str(tmp_path / "gov")
    assert main(["governance", "--config", world_config, "--rounds", "3", "--out", out]) == 0
    payload = json.loads(Path(out, "governance.json").read_text())
    assert len(payload["rounds"]) == 3
    assert "selected_iteration" in payload


def test_governance_on_fits_policy_evaluates_the_manifest_fit_split(tmp_path, world_config, grid_config, capsys):
    # governance reads no manifest: it draws the world from the config's seed and takes the fit split
    # that fit records, so round 0 (the unchanged banks) scores fit's policy as fit did
    fit_out, gov_out = tmp_path / "fit", tmp_path / "gov"
    assert main(["fit", "--config", world_config, "--grid", grid_config, "--out", str(fit_out)]) == 0
    policy = str(fit_out / "policy.kv")
    assert main(["governance", "--config", world_config, "--policy", policy, "--rounds", "1", "--out", str(gov_out)]) == 0
    record = json.loads((fit_out / "manifest.json").read_text())["selection_record"]
    report = json.loads((gov_out / "governance.json").read_text())
    n = len(split_indices(200)[0])  # the fit side of world_config's 200 examples
    net_helps = round((report["rounds"][0]["fit_accuracy"] - report["baseline_accuracy"]) * n)
    assert net_helps == round(record["fit_delta_acc"] * n) != 0


def test_governance_gap_close_absent_when_oracle_equals_baseline(tmp_path, capsys):
    # no applicable memory and no hurts: oracle == baseline
    spec = worldsim.WorldSpec(
        n_examples=200,
        seed=17,
        applicability_rate=(("rule", 0.0), ("exemplar", 0.0)),
        hurt_prob_given_inapplicable=0.0,
    )
    config, policy, out = tmp_path / "world.kv", tmp_path / "policy.kv", tmp_path / "gov"
    write_kv_file(str(config), spec.to_flat())
    write_kv_file(str(policy), PolicyConfig(tau=0.9).to_flat())
    argv = ["governance", "--config", str(config), "--policy", str(policy), "--rounds", "2", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads((out / "governance.json").read_text())
    assert report["oracle_accuracy"] == report["baseline_accuracy"]
    assert [r["gap_close"] for r in report["rounds"]] == [None, None]
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("round ")]
    assert len(lines) == 2 and all("gap_close=absent" in line for line in lines)


def test_each_subcommand_takes_exactly_its_options(capsys):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: sorted(a.option_strings[0] if a.option_strings else a.dest for a in sub._actions if a.dest != "help")
        for name, sub in subparsers.choices.items()
    }
    assert options == {
        "gen-world": ["--config", "--out"],
        "fit": ["--config", "--governance-rounds", "--grid", "--out"],
        "test": ["--config", "--manifest", "--out", "--pool-seeds"],
        "counterfactual": ["--config", "--edits", "--manifest", "--out"],
        "governance": ["--config", "--out", "--policy", "--rounds"],
        "ledger-check": ["row"],
    }
    # the config's seed is the only world seed and the fit split is fixed, so no stage takes either
    required = {"test": ["--manifest", "m.json"], "counterfactual": ["--manifest", "m.json", "--edits", "e.jsonl"]}
    for argv in (
        *([stage, "--config", "w.kv", *required.get(stage, []), "--seed", "5"] for stage in options if stage != "ledger-check"),
        ["fit", "--config", "w.kv", "--fit-fraction", "0.6"],
        ["governance", "--config", "w.kv", "--split-seed", "1"],
    ):
        assert main(argv) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_ledger_check_consistent(capsys):
    assert main(["ledger-check", "n=540", "dacc=0.0019", "hh=1", "p=1"]) == 0
    assert "h=1 u=0" in capsys.readouterr().out


def test_ledger_check_inconsistent(capsys):
    assert main(["ledger-check", "n=600", "dacc=0.5", "hh=2", "p=0.5"]) == 1
    assert "inconsistent" in capsys.readouterr().out


def test_ledger_check_malformed(capsys):
    assert main(["ledger-check", "n=600"]) == 2


@pytest.mark.parametrize(
    "row, named",
    [
        (["n=600", "dacc=nan", "hh=42", "p=9.67e-7"], "dacc must be a finite number"),
        (["n=600", "dacc=inf", "hh=42", "p=9.67e-7"], "dacc must be a finite number"),
        (["n=-5", "dacc=0.07", "hh=42", "p=9.67e-7"], "n must be >= 1"),
        (["n=0", "dacc=0.07", "hh=42", "p=9.67e-7"], "n must be >= 1"),
        (["n=abc", "dacc=0.07", "hh=42", "p=9.67e-7"], "n: expected int, got 'abc'"),
        (["n=600", "dacc=0.07", "hh=4.2", "p=9.67e-7"], "hh: expected int, got '4.2'"),
        (["n=600", "dacc=x", "hh=42", "p=9.67e-7"], "dacc: expected float, got 'x'"),
        (["n=600", "dacc=0.07", "hh=42", "p=1.5"], "p must be in [0, 1]"),
        (["n=600", "dacc=0.07", "hh=42", "p=-0.1"], "p must be in [0, 1]"),
        (["n=600", "dacc=0.07", "hh=42", "p=nan"], "p must be in [0, 1]"),
        # a row of a consistent ledger, with a key that would be dropped or a value that would be overridden
        (["n=600", "dacc=0.0700", "hh=42", "p=9.67e-7", "extra=5"], "unknown key 'extra'"),
        (["n=600", "dacc=0.0700", "hh=42", "p=9.67e-7", "n=700"], "repeated key 'n'"),
    ],
)
def test_ledger_check_rejects_bad_values(capsys, row, named):
    assert main(["ledger-check", *row]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert "consistent" not in captured.out


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) != 0


@pytest.mark.parametrize("flag", ["--config", "--grid", "--policy", "--manifest", "--edits"])
def test_input_file_that_is_not_utf8_names_the_file(request, tmp_path, world_config, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"seed = 5\n# caf\xff\n")
    out = tmp_path / "out"
    stage = {"--config": "gen-world", "--grid": "fit", "--policy": "governance", "--manifest": "test"}
    if flag == "--edits":
        argv = ["counterfactual", "--config", world_config, "--manifest", str(request.getfixturevalue("fitted"))]
    else:
        argv = [stage[flag]] + (["--config", world_config] if flag != "--config" else [])
    capsys.readouterr()
    assert main([*argv, flag, str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text (")
    assert not out.exists()


def test_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.kv"
    bad.write_text("this line has no equals sign\n")
    code = main(["gen-world", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra_world, named",
    [
        ("n_examples = 300\n", "n_examples"),  # repeated key
        ("n_exmaples = 300\n", "n_exmaples"),
        ("applicability_rate.rule = 0.4\n", "applicability_rate.exemplar"),
        ("guard_pass_rate.fromat = 0.5\n", "guard_pass_rate.fromat"),
        ("k_max = two\n", "k_max"),  # int
        ("topic_weight = heavy\n", "topic_weight"),  # float
        ("confidence_model.kappa = 1e\n", "confidence_model.kappa"),
        ("confidence_model.kapa = 10\n", "confidence_model.kapa"),
        ("applicability_rate.rule = often\napplicability_rate.exemplar = 0.5\n", "applicability_rate.rule"),
        ("guard_pass_rate.valid = 0.5x\n", "guard_pass_rate.valid"),
        # values that parse but are out of range
        ("embedding_dim = -3\n", "embedding_dim"),
        ("embedding_dim = 0\n", "embedding_dim"),
        ("k_max = 0\n", "k_max"),
        ("n_rule_entries = -1\n", "n_rule_entries"),
        ("n_exemplar_entries = -1\n", "n_exemplar_entries"),
        ("topic_weight = 1.5\n", "topic_weight"),
        ("topic_weight = -0.1\n", "topic_weight"),
        ("confidence_model.kappa = -1\n", "confidence_model.kappa"),
        ("confidence_model.kappa = 0\n", "confidence_model.kappa"),
        ("confidence_model.kappa = inf\n", "confidence_model.kappa"),  # NaN confidences
        ("confidence_model.kappa = 1e308\n", "confidence_model.kappa"),  # the AUC solver's series overflows
        ("confidence_model.kappa = 1001\n", "confidence_model.kappa"),  # the AUC solver's cost grows with kappa
        ("confidence_model.baseline_auc = 2\n", "confidence_model.baseline_auc"),
        ("confidence_model.second_auc_rule = -0.5\n", "confidence_model.second_auc_rule"),
        ("confidence_model.second_auc_exemplar = nan\n", "confidence_model.second_auc_exemplar"),
        ("retrieval_threshold = nan\n", "retrieval_threshold"),  # retrieves nothing
    ],
)
def test_malformed_world_config_names_the_key(tmp_path, world_config, grid_config, capsys, extra_world, named):
    with open(world_config, "a") as fh:
        fh.write(extra_world)
    out = str(tmp_path / "o")
    for argv in (
        ["gen-world", "--config", world_config, "--out", out],
        ["fit", "--config", world_config, "--grid", grid_config, "--out", out],
    ):
        assert main(argv) == 1
        assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid_text, named",
    [
        pytest.param("budgetB = 2\n", "budgetB", id="unknown-key"),
        pytest.param("lambda = 0.0|0.1\n", "lambda", id="deleted-key-lambda"),  # fit selects by fit delta-acc alone
        # the confidence is the world's one signal
        pytest.param("confidence_signal = mean_logprob\n", "confidence_signal", id="deleted-key-confidence_signal"),
        # governance retires at retirement_sweep's one delta
        pytest.param("delta = 0.05|0.1\n", "delta", id="deleted-key-delta"),
        pytest.param("tau_percentile = abc\n", "tau_percentile", id="bad-tau_percentile"),
        pytest.param("margin_m = 0.0|0.0\n", "margin_m", id="repeated-alternative"),
        pytest.param("# nothing\n", "grid.kv: no grid keys", id="no-keys"),  # else fit would freeze the default policy
        # tau_percentile would choose every candidate's tau, so the grid's taus would be dropped
        pytest.param(
            "tau = 0.3|0.6\ntau_percentile = 35\nbank_policy = dual\n", "tau and tau_percentile", id="tau-and-tau_percentile"
        ),
    ],
)
def test_unknown_grid_key_names_the_key(tmp_path, world_config, capsys, grid_text, named):
    grid = tmp_path / "grid.kv"
    grid.write_text(grid_text)
    code = main(["fit", "--config", world_config, "--grid", str(grid), "--out", str(tmp_path / "fit")])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "fit")


@pytest.mark.parametrize(
    "policy_text, named",
    [
        ("tau = high\n", "tau"),  # float
        # keys that no policy holds, whatever their value: fit selects by fit delta-acc alone,
        # and a frozen policy names the multibank_best member it runs in its bank_policy
        ("lambda = 0.0\n", "lambda"),
        ("lambda = 0.1.2\n", "lambda"),
        ("lambda = nan\n", "lambda"),
        ("multibank_member = none\n", "multibank_member"),
        ("multibank_member = triple\n", "multibank_member"),
        ("lambda_cost = 0.1\n", "lambda_cost"),
        ("confidence_signal = mean_logprob\n", "confidence_signal"),  # the confidence is the world's one signal
        # governance retires at retirement_sweep's one delta; every policy.kv written with a delta holds 0.05
        ("delta = 0.05\n", "delta"),
        ("delta = 0\n", "delta"),
        ("delta = 1\n", "delta"),
        ("delta = 2\n", "delta"),
        ("delta = nan\n", "delta"),
        ("bank_policy = multibank_best\n", "bank_policy 'multibank_best' is a grid value"),  # a grid value, which no run reads
        ("cooldown = 1.5\n", "cooldown"),  # int
        ("budget_B = unlimited\n", "budget_B"),  # optional int
        ("guards_enabled = format,fromat\n", "guards_enabled"),  # guard CSV
        ("bank_policy = choose\nprimary_bank = none\n", "primary_bank"),  # choose reads its one bank
        # values that parse but are out of range
        ("tau = nan\n", "tau"),  # routes nothing
        ("margin_m = nan\n", "margin_m"),
    ],
)
def test_bad_policy_value_names_the_key(tmp_path, world_config, capsys, policy_text, named):
    policy = tmp_path / "policy.kv"
    policy.write_text(policy_text)
    out = tmp_path / "gov"
    code = main(["governance", "--config", world_config, "--policy", str(policy), "--rounds", "1", "--out", str(out)])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_fit_refuses_a_split_with_an_empty_side(tmp_path, capsys):
    config = tmp_path / "tiny.kv"
    config.write_text("n_examples = 1\nseed = 1\n")
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "n=1" in err and "fit_fraction=0.5" in err and "test split empty" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "governance"])
def test_negative_governance_rounds_rejected(tmp_path, world_config, grid_config, capsys, monkeypatch, command):
    # a bad round count is refused before the world is built, and nothing is written
    built = []
    monkeypatch.setattr(worldsim.World, "__init__", lambda self, spec: built.append(spec))
    out = tmp_path / "out"
    rounds, message = {
        "fit": (["--grid", grid_config, "--governance-rounds", "-2"], "--governance-rounds must be >= 0, got -2"),
        "governance": (["--rounds", "0"], "--rounds must be >= 1, got 0"),
    }[command]
    assert main([command, "--config", world_config, *rounds, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and built == []


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_pool_seeds_below_one_rejected_first(tmp_path, capsys, seeds):
    # refused by its flag before the spec or the manifest is read: neither file exists, and nothing is written
    out = tmp_path / "out"
    argv = ["test", "--config", str(tmp_path / "no.kv"), "--manifest", str(tmp_path / "no.json")]
    assert main([*argv, "--pool-seeds", seeds, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --pool-seeds must be >= 1, got {seeds}\n"
    assert not out.exists()


def test_readme_commands_parse():
    # every `gatedmem ...` line of README, a backslash continuation joined, is a valid command line
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("gatedmem ")]
    assert {argv[0] for argv in commands} == {"gen-world", "fit", "test", "counterfactual", "governance", "ledger-check"}
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.func.__name__ == "cmd_" + argv[0].replace("-", "_"), argv


def test_readme_record_citations_resolve():
    # a measurement README quotes names its record: every BENCH_*.json it names is a file at the
    # repository root, every startup["..."] or sizes["..."]["..."] row it cites is a row of
    # BENCH_scale.json, and every "<row> reads W s wall and R MB peak RSS" it quotes gives that
    # row's medians at the precision printed
    root = Path(__file__).parents[1]
    text = (root / "README.md").read_text(encoding="utf-8")
    records = set(re.findall(r"BENCH_\w+\.json", text))
    assert records and all((root / name).is_file() for name in records), records
    record = json.loads((root / "BENCH_scale.json").read_text(encoding="utf-8"))
    row = r'((?:startup|sizes)(?:\["[^"]+"\])+)'

    def resolve(cited):
        node = record
        for key in [cited.split("[", 1)[0], *re.findall(r'\["([^"]+)"\]', cited)]:
            assert isinstance(node, dict) and key in node, cited
            node = node[key]
        assert "wall_s" in node and "peak_rss_mb" in node, cited
        return node

    cited = set(re.findall(row, text))
    assert any(c.startswith("startup") for c in cited) and any(c.startswith("sizes") for c in cited), cited
    quotes = re.findall(rf"`{row}` reads (\d+\.\d+) s wall and (\d+\.\d+) MB peak RSS", text)
    assert {c for c, _, _ in quotes} == cited, cited - {c for c, _, _ in quotes}  # each cited row is quoted
    for c, wall, rss in quotes:
        for figure, metric in ((wall, "wall_s"), (rss, "peak_rss_mb")):
            median = resolve(c)[metric]["this"]
            assert f"{median:.{len(figure.split('.')[1])}f}" == figure, (c, metric, median, figure)


@pytest.mark.parametrize("seed", [32, 50])
def test_ledger_delta_calls_prints_the_routed_fraction(tmp_path, capsys, seed):
    # a routed example costs one extra call, so delta_calls is routed_frac; a pooled row is one run over
    # every seed's examples, where weighting each seed's fraction by its share printed them 1e-6 apart
    configs = Path(__file__).parents[1] / "configs"
    world = str(tmp_path / "world.kv")
    write_kv_file(world, {**parse_kv_file(str(configs / "world.kv")), "n_examples": "256", "seed": str(seed)})
    fit, test = tmp_path / "fit", tmp_path / "test"
    assert main(["fit", "--config", world, "--grid", str(configs / "grid.kv"), "--out", str(fit)]) == 0
    assert main(["test", "--config", world, "--manifest", str(fit / "manifest.json"), "--out", str(test)]) == 0
    ledgers = sorted(test.glob("ledger*.csv"))
    assert [p.name for p in ledgers] == ["ledger.csv"] + [f"ledger_seed{seed + k}.csv" for k in range(3)]
    for path in ledgers:
        header, *rows = path.read_text().splitlines()
        columns = header.split(",")
        for row in map(dict, (zip(columns, line.split(",")) for line in rows)):
            assert row["delta_calls"] == "+" + row["routed_frac"], (path.name, row)


@pytest.fixture()
def fitted(tmp_path, world_config, grid_config):
    fit_out = tmp_path / "fit"
    assert main(["fit", "--config", world_config, "--grid", grid_config, "--out", str(fit_out)]) == 0
    return fit_out / "manifest.json"


@pytest.mark.parametrize(
    "tamper, named",
    [
        (lambda raw: ["not", "an", "object"], "JSON object"),
        (lambda raw: {"policy_hash": "x"}, "missing ['bank_hashes', 'selection_record', 'world_hash']"),
        (lambda raw: dict(raw, notes="extra"), "extra ['notes']"),
        (lambda raw: dict(raw, bank_hashes=5), "bank_hashes"),
        (lambda raw: dict(raw, selection_record=dict(raw["selection_record"], fit_fraction=2.0)), "selection_record.fit_fraction"),
        (lambda raw: dict(raw, selection_record=dict(raw["selection_record"], fit_digest="x")), "selection_record.fit_digest"),
        # a manifest from before fit recorded its draws
        (lambda raw: dict(raw, selection_record={k: v for k, v in raw["selection_record"].items() if k != "draw_digest"}), "selection_record.draw_digest"),
        (lambda raw: dict(raw, selection_record=dict(raw["selection_record"], policy=5)), "selection_record.policy"),
        # a manifest from before governance retired at one delta
        (lambda raw: dict(raw, selection_record=dict(raw["selection_record"], policy=dict(raw["selection_record"]["policy"], delta="0.05"))), "delta"),
        (lambda raw: dict(raw, selection_record=dict(raw["selection_record"], active_ids=5)), "selection_record.active_ids"),
        (lambda raw: dict(raw, selection_record=dict(raw["selection_record"], active_ids={"rule": 5, "exemplar": []})), "selection_record.active_ids.rule"),
        (lambda raw: dict(raw, selection_record=dict(raw["selection_record"], active_ids={"rule": [], "exemplar": [7]})), "selection_record.active_ids.exemplar"),
        (
            lambda raw: dict(raw, selection_record=dict(raw["selection_record"], active_ids=dict(raw["selection_record"]["active_ids"], bogus=[]))),
            "selection_record.active_ids names bank kinds ['bogus', 'exemplar', 'rule'], the world has ['exemplar', 'rule']",
        ),
        (
            lambda raw: dict(raw, selection_record=dict(raw["selection_record"], active_ids={"rule": raw["selection_record"]["active_ids"]["rule"]})),
            "selection_record.active_ids names bank kinds ['rule'], the world has ['exemplar', 'rule']",
        ),
        (
            lambda raw: dict(raw, selection_record=dict(raw["selection_record"], active_ids=dict(raw["selection_record"]["active_ids"], rule=["R000", "R999"]))),
            "selection_record.active_ids['rule'] names entries that bank lacks: ['R999']",
        ),
        (
            lambda raw: dict(raw, selection_record=dict(raw["selection_record"], active_ids=dict(raw["selection_record"]["active_ids"], rule=["E001", "R000"]))),
            "selection_record.active_ids['rule'] names entries that bank lacks: ['E001']",
        ),
    ],
    ids=[
        "not-object", "missing-field", "extra-field", "wrong-type", "fit-fraction-out-of-range",
        "split-digest-wrong", "draw-digest-missing",
        "policy-not-object", "policy-deleted-key-delta", "active-ids-not-object", "active-ids-not-list", "active-ids-not-strings",
        "active-ids-extra-kind", "active-ids-missing-kind", "active-ids-unknown-entry", "active-ids-wrong-kind",
    ],
)
def test_malformed_manifest_names_the_field(tmp_path, world_config, fitted, capsys, tamper, named):
    raw = json.loads(fitted.read_text())
    fitted.write_text(json.dumps(tamper(raw)))
    capsys.readouterr()
    code = main(["test", "--config", world_config, "--manifest", str(fitted), "--out", str(tmp_path / "t")])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("key, value", [("seed", "6"), ("n_examples", "100"), ("n_rule_entries", "40")])
def test_another_worlds_config_is_refused_by_its_world_hash(tmp_path, world_config, fitted, capsys, key, value):
    # the world is checked before the recorded membership and split, which it would fail as symptoms
    config = str(tmp_path / "other.kv")
    write_kv_file(config, {**parse_kv_file(world_config), key: value})
    save_edits(["E000"], str(tmp_path / "edits.jsonl"))
    capsys.readouterr()
    for stage, edits in (("test", []), ("counterfactual", ["--edits", str(tmp_path / "edits.jsonl")])):
        argv = [stage, "--config", config, "--manifest", str(fitted), *edits, "--out", str(tmp_path / stage)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: world hash does not match the freeze manifest\n"
        assert not (tmp_path / stage).exists()


def test_a_world_whose_draws_differ_from_fits_is_refused(tmp_path, world_config, fitted, capsys, monkeypatch):
    # fit's spec, so fit's world hash, but one confidence draw that is not fit's, as a numpy whose beta
    # stream changed would give; the patch acts in the test-stage process only
    draw = worldsim.World._draw_latent

    def perturbed(self, baseline):
        confidence = draw(self, baseline)
        confidence[7, 0] = np.nextafter(confidence[7, 0], 1.0)
        return confidence

    monkeypatch.setattr(worldsim.World, "_draw_latent", perturbed)
    save_edits(["E000"], str(tmp_path / "edits.jsonl"))
    capsys.readouterr()
    for stage, edits in (("test", []), ("counterfactual", ["--edits", str(tmp_path / "edits.jsonl")])):
        argv = [stage, "--config", world_config, "--manifest", str(fitted), *edits, "--out", str(tmp_path / stage)]
        assert main(argv) == 1
        assert "the world's draws differ from fit's" in capsys.readouterr().err
        assert not (tmp_path / stage).exists()


@pytest.mark.parametrize(
    "line, named",
    [
        ('["R000"]', "JSON object"),
        ('{"entry_id": "E000", "edit_kind": "repair"}', "new_payload"),
        ('{"entry_id": "E000", "new_payload": "x", "edit_kind": "rewrite"}', "edit_kind"),
        ('{"entry_id": "E000",', "Expecting"),  # the JSON decoder's message
        ('{"entry_id": "E001", "new_payload": "again", "edit_kind": "corrupt"}', "'E001'"),
        ('{"entry_id": 7, "new_payload": "x", "edit_kind": "repair"}', "entry_id"),
    ],
    ids=["not-object", "missing-field", "bad-kind", "bad-json", "repeated-entry", "entry-not-string"],
)
def test_malformed_edits_name_the_file_line_and_field(tmp_path, world_config, fitted, capsys, line, named):
    edits = tmp_path / "edits.jsonl"
    edits.write_text('{"entry_id": "E001", "edit_kind": "repair", "new_payload": "ok"}\n' + line + "\n")
    capsys.readouterr()
    code = main(
        ["counterfactual", "--config", world_config, "--manifest", str(fitted), "--edits", str(edits), "--out", str(tmp_path / "cf")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{edits}:2" in err and named in err


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_edits_file_without_edits_fails(tmp_path, world_config, fitted, capsys, text):
    edits = tmp_path / "edits.jsonl"
    edits.write_text(text)
    capsys.readouterr()
    code = main(
        ["counterfactual", "--config", world_config, "--manifest", str(fitted), "--edits", str(edits), "--out", str(tmp_path / "cf")]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {edits}: no edits\n"
    assert not (tmp_path / "cf").exists()


def test_unknown_edit_entry_is_a_plain_error(tmp_path, world_config, fitted, capsys):
    edits = tmp_path / "edits.jsonl"
    edits.write_text('{"entry_id": "E999", "edit_kind": "repair", "new_payload": "x"}\n')
    capsys.readouterr()
    code = main(
        ["counterfactual", "--config", world_config, "--manifest", str(fitted), "--edits", str(edits), "--out", str(tmp_path / "cf")]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: edit references unknown entry 'E999'\n"


# sha256 of every file the README quickstart writes on the shipped configs.
# A change to a random stream or an output format must update these on purpose.
QUICKSTART_DIGESTS = {
    "cf/audit.json": "f141d0fee225f9c6dd102540d95647fa59cc8171c96e15ca09db2ef2afe21d8d",
    "cf/counterfactual_rows.jsonl": "dda32e90ee911dbf4dc63ab510f02427341530e5bf55c5c764e975ac55bb6d43",
    "fit/bank_exemplar.jsonl": "2275c77c4133ba68bd1654c9b6e1e11db36ad1ce6072b1154e628fc4401fb6ed",
    "fit/bank_rule.jsonl": "d58830eb2fd1f5252399a12eb6b0183ae81c4383ba0649872770f40929115744",
    "fit/manifest.json": "226ab5520e2cfc784b860dfe14e779ad4cbd8537d8f84abbde2a576788eab365",
    "fit/policy.kv": "b91a8ae9621ba42b972b484b8a34631d38e083d9f2808118c51c9176d4fb50ee",
    "gov/governance.json": "e686c48e1c107da01000a36784af76bec5d214c7dbcbc7f5c3f3a608cf542b49",
    "test/conf_bins.csv": "5986e6a5a51f555a5ec89e2595e206608ce24d86813a81ad3e2481a44d4a46c0",
    "test/ledger.csv": "7b43fa686738efd18d831130cc68ea07694fb0e11383984992d243f3ac0abb88",
    "test/ledger_seed0.csv": "d90a95b741dee03e676df888b5931ded89b073472cf220d1827e7bdbb9aa3d7f",
    "test/ledger_seed1.csv": "6cfe44d166fa19298cdca4bb7533d5ede1ee75e97a43694ee9b90f4532d07c09",
    "test/ledger_seed2.csv": "0837c346b075dbf08ac85e7ba56d95828e302254773df7f29d7d5cd374856db3",
    "test/traces.jsonl": "6d280d56908e0c012a5c3010d58d0b268af96c0bde5db65261a20ec19b49a7d8",
    "world/bank_exemplar.jsonl": "2275c77c4133ba68bd1654c9b6e1e11db36ad1ce6072b1154e628fc4401fb6ed",
    "world/bank_rule.jsonl": "d58830eb2fd1f5252399a12eb6b0183ae81c4383ba0649872770f40929115744",
    "world/outcome_table.json": "548b713676990dffcba9e437cdf2bc6712fd0c1031c6434021992f89bb3d8af0",
    "world/world.kv": "276c9935b226bdad76147864f33848fcbfc888da227e92cc5be6daa542d0c53a",
}


def test_quickstart_output_bytes_pinned(tmp_path, capsys):
    configs = Path(__file__).parents[1] / "configs"
    world, grid = str(configs / "world.kv"), str(configs / "grid.kv")
    manifest = str(tmp_path / "fit" / "manifest.json")
    edits = tmp_path / "edits.jsonl"
    edits.write_text('{"entry_id": "E000", "edit_kind": "repair", "new_payload": "repaired E000"}\n')
    for argv in (
        ["gen-world", "--config", world, "--out", str(tmp_path / "world")],
        ["fit", "--config", world, "--grid", grid, "--out", str(tmp_path / "fit")],
        ["test", "--config", world, "--manifest", manifest, "--out", str(tmp_path / "test")],
        ["counterfactual", "--config", world, "--manifest", manifest, "--edits", str(edits), "--out", str(tmp_path / "cf")],
        ["governance", "--config", world, "--rounds", "5", "--out", str(tmp_path / "gov")],
    ):
        assert main(argv) == 0, argv
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.rglob("*")
        if p.is_file() and p != edits
    }
    assert digests == QUICKSTART_DIGESTS


def _stage_outputs(tmp_path, world, grid, fit_args, test_args, edits, governance_args) -> dict:
    """Relative path -> bytes of every file gen-world, fit, test, counterfactual and governance write."""
    tmp_path.mkdir()
    save_edits(edits, str(tmp_path / "edits.jsonl"))
    cfg, manifest = ["--config", str(world)], ["--manifest", str(tmp_path / "fit" / "manifest.json")]
    stages = {
        "world": ["gen-world", *cfg],
        "fit": ["fit", *cfg, "--grid", str(grid), *fit_args],
        "test": ["test", *cfg, *manifest, *test_args],
        "cf": ["counterfactual", *cfg, *manifest, "--edits", str(tmp_path / "edits.jsonl")],
        "gov": ["governance", *cfg, *governance_args],
    }
    for out, argv in stages.items():
        assert main([*argv, "--out", str(tmp_path / out)]) == 0, argv
    return {str(p.relative_to(tmp_path)): p.read_bytes() for out in stages for p in sorted((tmp_path / out).rglob("*"))}


@pytest.mark.parametrize("setup", ["shipped", "multi-step-governed"])
def test_no_output_reads_an_unfilled_retrieval_slot(tmp_path, monkeypatch, setup):
    # every slot of a kept retrieval table past its row's count gets a random entry column and
    # random pair bytes at every read, before a stage reads the table: no output byte may move
    configs = Path(__file__).parents[1] / "configs"
    if setup == "shipped":
        world, grid = configs / "world.kv", configs / "grid.kv"
        args = ([], [], ["E000", "R001"], ["--rounds", "5"])
    else:  # perfbench's multi-step-governed world, grid and stage arguments, a third of the entries edited
        world, grid = tmp_path / "world.kv", tmp_path / "grid.kv"
        write_kv_file(str(world), {
            **parse_kv_file(str(configs / "world.kv")), "n_examples": "2000", "steps_per_episode": "8",
            "guard_pass_rate.format": "0.8", "guard_pass_rate.progress": "0.9", "toxic_entry_rate": "0.2",
        })
        write_kv_file(str(grid), {
            "budget_B": "2|none", "cooldown": "0|1", "bank_policy": "cascade_rule_then_exemplar|dual|multibank_best",
            "tau_percentile": "35|50", "margin_m": "0.0|0.05",
        })
        edits = [f"R{i:03d}" for i in range(0, 50, 3)] + [f"E{i:03d}" for i in range(0, 100, 3)]
        args = (["--governance-rounds", "5"], ["--pool-seeds", "1"], edits, ["--rounds", "8"])
    want = _stage_outputs(tmp_path / "plain", world, grid, *args)

    read = worldsim.World._table
    rng = np.random.default_rng(0)
    scrambled = []

    def scramble(self, snapshots, rows, every_pair=False):
        tables = read(self, snapshots, rows)
        for columns, counts, pairs in tables:
            unfilled = np.arange(columns.shape[1]) >= counts[:, None]
            columns[unfilled] = rng.integers(len(self.entry_ids), size=int(unfilled.sum()))
            cells = np.ones_like(unfilled) if every_pair else unfilled
            pairs[cells] = rng.integers(256, size=int(cells.sum()), dtype=np.uint8)
            scrambled.append(int(unfilled.sum()))
        return tables

    monkeypatch.setattr(worldsim.World, "_table", scramble)
    assert _stage_outputs(tmp_path / "unfilled", world, grid, *args) == want
    assert sum(scrambled) > 0  # not vacuous: the stages read tables with unfilled slots
    # the same scramble of the filled slots' pair bytes too moves the outputs
    monkeypatch.setattr(worldsim.World, "_table", lambda self, s, r: scramble(self, s, r, every_pair=True))
    assert _stage_outputs(tmp_path / "filled", world, grid, *args) != want
