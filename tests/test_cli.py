"""CLI subcommands drive the full protocol through files."""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from gatedmem import controller
from gatedmem.cli import main
from gatedmem.retrieval import ContentEdit, save_edits
from gatedmem.worldsim import WorldSpec, generate_world


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


def test_gen_world_writes_dump(tmp_path, world_config, capsys):
    out = str(tmp_path / "w")
    assert main(["gen-world", "--config", world_config, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "bank_rule.jsonl"))
    assert os.path.exists(os.path.join(out, "bank_exemplar.jsonl"))
    table = json.load(open(os.path.join(out, "outcome_table.json")))
    assert len(table) == 200
    assert "second_correct_by_context" in table[0]


def test_fit_then_test_flow(tmp_path, world_config, grid_config, capsys):
    fit_out = str(tmp_path / "fit")
    test_out = str(tmp_path / "test")
    assert main(["fit", "--config", world_config, "--grid", grid_config, "--out", fit_out]) == 0
    manifest = os.path.join(fit_out, "manifest.json")
    assert os.path.exists(manifest)
    assert main(["test", "--config", world_config, "--manifest", manifest, "--out", test_out]) == 0
    ledger = open(os.path.join(test_out, "ledger.csv")).read().splitlines()
    assert ledger[0].startswith("comparison,")
    assert any(line.startswith("retry vs baseline") for line in ledger)


def test_test_without_manifest_errors(tmp_path, world_config, capsys):
    code = main(["test", "--config", world_config, "--out", str(tmp_path / "t")])
    assert code != 0
    assert "manifest" in capsys.readouterr().err


def test_test_with_tampered_manifest_errors(tmp_path, world_config, grid_config, capsys):
    fit_out = str(tmp_path / "fit")
    main(["fit", "--config", world_config, "--grid", grid_config, "--out", fit_out])
    manifest_path = os.path.join(fit_out, "manifest.json")
    raw = json.load(open(manifest_path))
    raw["selection_record"]["policy"]["tau"] = "0.99"  # retune after freeze
    json.dump(raw, open(manifest_path, "w"))
    code = main(["test", "--config", world_config, "--manifest", manifest_path, "--out", str(tmp_path / "t")])
    assert code != 0


def test_counterfactual_flow(tmp_path, world_config, grid_config, capsys):
    fit_out = str(tmp_path / "fit")
    cf_out = str(tmp_path / "cf")
    main(["fit", "--config", world_config, "--grid", grid_config, "--out", fit_out])
    world = generate_world(WorldSpec.from_flat({"n_examples": "200", "base_accuracy": "0.74", "seed": "5", "topic_count": "10"}))
    edits_path = str(tmp_path / "edits.jsonl")
    save_edits(world.default_edits(["E000", "E001"], "repair"), edits_path)
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
    rows = open(os.path.join(cf_out, "counterfactual_rows.jsonl")).read().splitlines()
    assert len(rows) == audit["n_rows"]


def test_tampered_fixed_replay_exits_1_naming_the_query(tmp_path, world_config, grid_config, capsys, monkeypatch):
    fit_out = str(tmp_path / "fit")
    assert main(["fit", "--config", world_config, "--grid", grid_config, "--out", fit_out]) == 0
    edits_path = str(tmp_path / "edits.jsonl")
    save_edits([ContentEdit("E000", "repaired E000", "repair")], edits_path)
    frozen_injection = controller._frozen_injection
    tampered = []

    def drop_one_entry(world, frozen_map, rows):
        # the fixed replay of the first query with a frozen identity injects one entry fewer
        cols, sims, filled = frozen_injection(world, frozen_map, rows)
        r = int(np.flatnonzero(filled.any(axis=1))[0])
        filled[r, np.flatnonzero(filled[r])[-1]] = False
        tampered.append(int(rows[r]))
        return cols, sims, filled

    monkeypatch.setattr(controller, "_frozen_injection", drop_one_entry)
    code = main(
        [
            "counterfactual", "--config", world_config, "--manifest", os.path.join(fit_out, "manifest.json"),
            "--edits", edits_path, "--out", str(tmp_path / "cf"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: fixed replay of query {tampered[0]} (repair) injected (")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not os.path.exists(tmp_path / "cf" / "audit.json")


def test_governance_flow(tmp_path, world_config, capsys):
    out = str(tmp_path / "gov")
    assert main(["governance", "--config", world_config, "--rounds", "3", "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "governance.json")))
    assert len(payload["rounds"]) == 3
    assert "selected_iteration" in payload


def test_ledger_check_consistent(capsys):
    assert main(["ledger-check", "n=540", "dacc=0.0019", "hh=1", "p=1"]) == 0
    assert "h=1 u=0" in capsys.readouterr().out


def test_ledger_check_inconsistent(capsys):
    assert main(["ledger-check", "n=600", "dacc=0.5", "hh=2", "p=0.5"]) == 1
    assert "inconsistent" in capsys.readouterr().out


def test_ledger_check_malformed(capsys):
    assert main(["ledger-check", "n=600"]) == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) != 0


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
        pytest.param("tau_percentile = abc\n", "tau_percentile", id="bad-tau_percentile"),
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
        ("lambda = 0.1.2\n", "lambda"),  # float under its metadata key
        ("cooldown = 1.5\n", "cooldown"),  # int
        ("budget_B = unlimited\n", "budget_B"),  # optional int
        ("guards_enabled = format,fromat\n", "guards_enabled"),  # guard CSV
        ("multibank_member = triple\n", "multibank_member"),  # optional str
        ("lambda_cost = 0.1\n", "lambda_cost"),  # the attribute name is not a key
        # values that parse but are out of range
        ("tau = nan\n", "tau"),  # routes nothing
        ("margin_m = nan\n", "margin_m"),
        ("lambda = nan\n", "lambda"),
        ("delta = 0\n", "delta"),
        ("delta = 1\n", "delta"),
        ("delta = 2\n", "delta"),
        ("delta = nan\n", "delta"),
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


def test_negative_governance_rounds_rejected(tmp_path, world_config, grid_config, capsys):
    out = tmp_path / "fit"
    code = main(["fit", "--config", world_config, "--grid", grid_config, "--governance-rounds", "-2", "--out", str(out)])
    assert code == 1
    assert "governance_rounds" in capsys.readouterr().err
    assert not out.exists()


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
        (lambda raw: dict(raw, selection_record=dict(raw["selection_record"], fit_ids=5)), "selection_record.fit_ids"),
        (lambda raw: dict(raw, selection_record=dict(raw["selection_record"], fit_ids=["x"])), "fit_ids"),
        (lambda raw: dict(raw, selection_record=dict(raw["selection_record"], policy=5)), "selection_record.policy"),
        (lambda raw: dict(raw, selection_record=dict(raw["selection_record"], active_ids=5)), "selection_record.active_ids"),
        (lambda raw: dict(raw, selection_record=dict(raw["selection_record"], active_ids={"rule": 5, "exemplar": []})), "selection_record.active_ids.rule"),
        (lambda raw: dict(raw, selection_record=dict(raw["selection_record"], active_ids={"rule": [], "exemplar": [7]})), "selection_record.active_ids.exemplar"),
    ],
    ids=[
        "not-object", "missing-field", "extra-field", "wrong-type", "split-not-list", "split-not-ids",
        "policy-not-object", "active-ids-not-object", "active-ids-not-list", "active-ids-not-strings",
    ],
)
def test_malformed_manifest_names_the_field(tmp_path, world_config, fitted, capsys, tamper, named):
    raw = json.loads(fitted.read_text())
    fitted.write_text(json.dumps(tamper(raw)))
    capsys.readouterr()
    code = main(["test", "--config", world_config, "--manifest", str(fitted), "--out", str(tmp_path / "t")])
    assert code == 1
    assert named in capsys.readouterr().err


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


def test_seed_override(tmp_path, world_config, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["gen-world", "--config", world_config, "--out", out1, "--seed", "77"])
    main(["gen-world", "--config", world_config, "--out", out2])
    h1 = open(os.path.join(out1, "bank_rule.jsonl")).read()
    h2 = open(os.path.join(out2, "bank_rule.jsonl")).read()
    assert h1 != h2


# sha256 of every file the README quickstart writes on the shipped configs.
# A change to a random stream or an output format must update these on purpose.
QUICKSTART_DIGESTS = {
    "cf/audit.json": "f141d0fee225f9c6dd102540d95647fa59cc8171c96e15ca09db2ef2afe21d8d",
    "cf/counterfactual_rows.jsonl": "dda32e90ee911dbf4dc63ab510f02427341530e5bf55c5c764e975ac55bb6d43",
    "fit/bank_exemplar.jsonl": "2275c77c4133ba68bd1654c9b6e1e11db36ad1ce6072b1154e628fc4401fb6ed",
    "fit/bank_rule.jsonl": "d58830eb2fd1f5252399a12eb6b0183ae81c4383ba0649872770f40929115744",
    "fit/manifest.json": "54d028568b8f10cc9240d821231c8d9617a9accf89b1ae1ca893f0aa35dd63fa",
    "fit/policy.kv": "72d38bc9c7e60d1b55cefc5110078d161558671a86a958d9034fcf068de6649e",
    "gov/governance.json": "e686c48e1c107da01000a36784af76bec5d214c7dbcbc7f5c3f3a608cf542b49",
    "test/conf_bins.csv": "5986e6a5a51f555a5ec89e2595e206608ce24d86813a81ad3e2481a44d4a46c0",
    "test/ledger.csv": "7b43fa686738efd18d831130cc68ea07694fb0e11383984992d243f3ac0abb88",
    "test/ledger_seed0.csv": "d90a95b741dee03e676df888b5931ded89b073472cf220d1827e7bdbb9aa3d7f",
    "test/ledger_seed1.csv": "6cfe44d166fa19298cdca4bb7533d5ede1ee75e97a43694ee9b90f4532d07c09",
    "test/ledger_seed2.csv": "0837c346b075dbf08ac85e7ba56d95828e302254773df7f29d7d5cd374856db3",
    "test/traces.jsonl": "6d280d56908e0c012a5c3010d58d0b268af96c0bde5db65261a20ec19b49a7d8",
    "world/bank_exemplar.jsonl": "2275c77c4133ba68bd1654c9b6e1e11db36ad1ce6072b1154e628fc4401fb6ed",
    "world/bank_rule.jsonl": "d58830eb2fd1f5252399a12eb6b0183ae81c4383ba0649872770f40929115744",
    "world/outcome_table.json": "42ceec91d1d6ddabca5dd01e586eb4f635a2e3cf5e510c883146f0435f64b22f",
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
