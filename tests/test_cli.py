import dataclasses
import json
from fractions import Fraction

from csglab.analysis import BoundCheck, compute_ratios
from csglab.cli import main
from csglab.io import canonical_json, instance_to_document, report_to_document
from csglab.instances import two_link


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_two_link(capsys):
    code, out, err = run_cli(capsys, "gen", "two-link", "--n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["agents"] == 5
    assert len(doc["edges"]) == 2
    assert doc["recipe"] == {"kind": "two-link", "params": {"n": "5"}}


def test_gen_fig3_table(capsys):
    code, out, _ = run_cli(capsys, "gen", "fig3", "--n", "4", "--eps", "1/100")
    assert code == 0
    doc = json.loads(out)
    wide = [e for e in doc["edges"] if e["id"] == 4][0]
    assert wide["scheme"]["table"][-1] == "101/400"
    assert len(wide["scheme"]["table"]) == 4


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run_cli(capsys, "gen", "fig2", "--x", "1", "--y", "1")
    assert code == 2
    assert "error" in err


def test_gen_rejects_malformed_rational(capsys):
    code, _, err = run_cli(capsys, "gen", "fig3", "--n", "4", "--eps", "1/0")
    assert code == 2


def test_gen_random_asymmetric(capsys):
    code, out, _ = run_cli(capsys, "gen", "random-asymmetric", "--seed", "7", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["agents"], list) and len(doc["agents"]) == 2


def test_dynamics_from_max_optimum(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "two-link", "--n", "3", "--out", str(path))
    code, out, _ = run_cli(capsys, "dynamics", str(path), "--start", "opt-mc")
    assert code == 0
    doc = json.loads(out)
    assert doc["terminal"]["max_cost"] == "1/3"  # everyone stays on the cheap edge


def test_gen_random_sp_uses_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("CSGLAB_SEED", "42")
    code, out_env, _ = run_cli(capsys, "gen", "random-sp", "--n", "3")
    assert code == 0
    code, out_flag, _ = run_cli(capsys, "gen", "random-sp", "--n", "3", "--seed", "42")
    assert code == 0
    assert out_env == out_flag


def test_analyze_two_link(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, out, _ = run_cli(capsys, "gen", "two-link", "--n", "5", "--out", str(path))
    assert code == 0

    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["ratios"]["poa_sc"]["exact"] == "5/1"
    assert doc["graph_class"] == "parallel-link"
    assert all(b["holds"] for b in doc["bounds"])
    assert doc["dynamics"]["terminal"]["sum_cost"] == "1/1"


def test_analyze_is_byte_stable(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "fig2", "--x", "1", "--y", "2", "--out", str(path))
    code1, out1, _ = run_cli(capsys, "analyze", str(path))
    code2, out2, _ = run_cli(capsys, "analyze", str(path))
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("volatile")
    doc2.pop("volatile")
    assert canonical_json(doc1) == canonical_json(doc2)


def test_analyze_crossed_dag_prints_class_without_poa_bounds(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "fig2", "--x", "1", "--y", "100", "--out", str(path))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--no-dynamics")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph_class"] == "dag"
    assert doc["ratios"]["poa_sc"]["exact"] == "204/5"
    assert all("PoA" not in b["tag"] for b in doc["bounds"])
    assert "dynamics" not in doc


def test_analyze_malformed_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = instance_to_document(two_link(2))
    doc["edges"][0]["cost"] = "1/0"
    path.write_text(canonical_json(doc))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/inst.json")
    assert code == 2


def test_analyze_explosion_exit_code(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "two-link", "--n", "5", "--out", str(path))
    code, _, err = run_cli(capsys, "analyze", str(path), "--cap", "10")
    assert code == 3
    assert "cap" in err
    assert "ordered profile product 2×2×2×2×2 = 32 exceeds the cap of 10" in err


def test_analyze_path_explosion_names_the_nodes(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "two-link", "--n", "5", "--out", str(path))
    code, _, err = run_cli(capsys, "analyze", str(path), "--cap", "1")
    assert code == 3
    assert "simple path enumeration from node 's' to node 't' exceeded the cap of 1" in err


def _report_with_violated_mc_bound():
    report = compute_ratios(two_link(3))
    violated = BoundCheck(
        tag="Thm9:PoA_mc<=n",
        description="anarchy under max-cost on SP graphs",
        bound=Fraction(1),
        measured=report.poa_mc.value,
        holds=False,
        witness=report.equilibria.entries[-1].profile,
    )
    kept = tuple(c for c in report.bounds if c.tag != violated.tag)
    assert all(c.holds for c in kept)
    return dataclasses.replace(report, bounds=kept + (violated,))


def test_report_counts_only_shown_bounds():
    report = _report_with_violated_mc_bound()
    sc_doc = report_to_document(report, criterion="sc")
    assert all("_mc" not in b["tag"] for b in sc_doc["bounds"])
    assert sc_doc["all_bounds_hold"] is True
    for criterion in ("mc", "both"):
        doc = report_to_document(report, criterion=criterion)
        assert "Thm9:PoA_mc<=n" in [b["tag"] for b in doc["bounds"]]
        assert doc["all_bounds_hold"] is False


def test_analyze_exit_code_counts_only_shown_bounds(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "two-link", "--n", "3", "--out", str(path))
    report = _report_with_violated_mc_bound()
    monkeypatch.setattr("csglab.cli.compute_ratios", lambda instance, cap: report)
    for criterion, expected in (("sc", 0), ("mc", 1), ("both", 1)):
        code, out, _ = run_cli(capsys, "analyze", str(path), "--criterion", criterion, "--no-dynamics")
        assert code == expected
        assert json.loads(out)["all_bounds_hold"] is (expected == 0)


def test_dynamics_from_sum_optimum(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "fig3", "--n", "4", "--eps", "1/100", "--out", str(path))
    code, out, _ = run_cli(capsys, "dynamics", str(path), "--start", "opt-sc")
    assert code == 0
    doc = json.loads(out)
    assert doc["terminal"]["sum_cost"] == "13/4"
    assert doc["step_count"] > 0


def test_dynamics_from_equilibrium_is_empty(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "two-link", "--n", "3", "--out", str(inst_path))
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"paths": [[0], [0], [0]]}))
    code, out, _ = run_cli(capsys, "dynamics", str(inst_path), "--start", str(profile_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["step_count"] == 0
    assert doc["steps"] == []


def test_dynamics_random_policy_has_decreasing_potentials(tmp_path, capsys):
    from fractions import Fraction

    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "fig3", "--n", "4", "--eps", "1/100", "--out", str(path))
    code, out, _ = run_cli(
        capsys, "dynamics", str(path), "--start", "opt-sc", "--policy", "random", "--seed", "9"
    )
    assert code == 0
    doc = json.loads(out)
    pots = [Fraction(doc["initial_potential"])] + [
        Fraction(step["potential_after"]) for step in doc["steps"]
    ]
    assert all(a > b for a, b in zip(pots, pots[1:]))
    # identical seeds reproduce the trace byte for byte
    code, out2, _ = run_cli(
        capsys, "dynamics", str(path), "--start", "opt-sc", "--policy", "random", "--seed", "9"
    )
    assert out2 == out


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "mystery")
    assert code == 2


def test_verify_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "paper", "--only", "C3")
    assert code == 0
    assert "PoA_sc == n" in out
    assert "suite PASS" in out


def test_verify_unknown_criterion(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "C99")
    assert code == 2
