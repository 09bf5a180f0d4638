import io
import json
import time
from fractions import Fraction

import pytest

from csglab import instances, verification
from csglab.analysis import BoundCheck, compute_ratios
from csglab.cli import main
from csglab.errors import GenerationFailed, InternalAssertion
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
    # a negative depth would never reach a leaf level, and the tree grows about
    # 1.4x per level (seed 0 at depth 40 draws 3.2 million edges), so the depth
    # lies in 0..16, where a tree has at most 2**17 - 1 nodes
    for argv in (
        ("fig2", "--x", "1", "--y", "1"),
        ("random-sp", "--seed", "1", "--n", "2", "--max-depth", "-1"),
        ("random-sp", "--seed", "0", "--n", "2", "--max-depth", "17"),
    ):
        started = time.perf_counter()
        code, _, err = run_cli(capsys, "gen", *argv)
        assert code == 2
        assert "error" in err
        assert time.perf_counter() - started < 1
    code, _, err = run_cli(capsys, "gen", "random-sp", "--seed", "0", "--n", "2", "--max-depth", "16")
    assert "max_depth" not in err


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


def test_gen_rejects_a_non_integer_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("CSGLAB_SEED", "abc")
    code, _, err = run_cli(capsys, "gen", "random-sp", "--n", "2")
    assert code == 2
    assert "CSGLAB_SEED must be an integer" in err


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


def test_analyze_rejects_invalid_json(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text("{")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_analyze_reads_the_document_from_stdin(tmp_path, capsys, monkeypatch):
    document = canonical_json(instance_to_document(two_link(2)))
    path = tmp_path / "inst.json"
    path.write_text(document)
    _, from_file, _ = run_cli(capsys, "analyze", str(path), "--no-dynamics")
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    code, from_stdin, _ = run_cli(capsys, "analyze", "-", "--no-dynamics")
    assert code == 0
    docs = [json.loads(out) for out in (from_file, from_stdin)]
    for doc in docs:
        doc.pop("volatile")
    assert docs[0] == docs[1]


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


def test_cap_reaches_the_certification_of_asymmetric_games(tmp_path, capsys):
    # agent 0 crosses 14 parallel pairs (2^14 = 16,384 paths, over the default
    # cap); agent 1 takes the tail edge. Loading the file certifies the game
    # by enumerating agent 0's paths, so it must already honour --cap.
    edges = [
        {"id": 2 * k + i, "tail": k, "head": k + 1, "cost": str(i + 1), "capacity": 2}
        for k in range(14)
        for i in (0, 1)
    ]
    edges.append({"id": 28, "tail": 14, "head": 15, "cost": "1", "capacity": 2})
    doc = {
        "version": 1,
        "nodes": list(range(16)),
        "edges": edges,
        "source": 0,
        "sink": 15,
        "agents": [{"source": 0, "sink": 14}, {"source": 14, "sink": 15}],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--cap", "20000", "--no-dynamics")
    assert code == 0
    assert json.loads(out)["equilibria"]["count_ordered"] == 1
    code, _, _ = run_cli(capsys, "dynamics", str(path), "--cap", "20000")
    assert code == 0
    for command in ("analyze", "dynamics"):
        code, _, err = run_cli(capsys, command, str(path), "--cap", "100")
        assert code == 3
        assert "simple path enumeration from node 0 to node 14 exceeded the cap of 100" in err


def blocked_hub_document(k):
    """Agent 0 routes s0 -> m -> t0: one capacity-1 arc s0 -> m, then three
    parallel arcs m -> t0. k independent agents each have three parallel
    capacity-1 arcs. The last agent, x -> s0 -> m -> y, needs s0 -> m too, so
    no profile is feasible, and a search in rank order meets the conflict only
    after every choice of the agents before it."""
    edges = []
    for tail, head, copies in [("s0", "m", 1), ("m", "t0", 3), ("x", "s0", 1), ("m", "y", 1)] + [
        (f"a{i}", f"b{i}", 3) for i in range(k)
    ]:
        edges += [
            {"id": len(edges) + c, "tail": tail, "head": head, "cost": "1", "capacity": 1} for c in range(copies)
        ]
    agents = [("s0", "t0")] + [(f"a{i}", f"b{i}") for i in range(k)] + [("x", "y")]
    return {
        "version": 1,
        "nodes": ["s0", "m", "t0", "x", "y"] + [f"{c}{i}" for i in range(k) for c in "ab"],
        "edges": edges,
        "source": "x",
        "sink": "y",
        "agents": [{"source": s, "sink": t} for s, t in agents],
    }


def test_asymmetric_certification_is_bounded_by_the_cap(tmp_path, capsys):
    path = tmp_path / "hub.json"
    path.write_text(json.dumps(blocked_hub_document(4)))  # 3^5 = 243 orders
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out, err) == (2, "", "error: no feasible strategy profile exists\n")
    # 3^31 orders: refused at load as analyze refuses any product beyond its cap
    path.write_text(json.dumps(blocked_hub_document(30)))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert time.perf_counter() - started < 1
    assert (code, out) == (3, "")
    assert err == "error: ordered profile product 3^31×1 = 617673396283947 exceeds the cap of 10000\n"
    # a last agent without paths makes the product 0, which bounds no search
    doc = blocked_hub_document(30)
    doc["agents"][-1] = {"source": "y", "sink": "x"}
    path.write_text(json.dumps(doc))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert time.perf_counter() - started < 1
    assert (code, out, err) == (2, "", "error: no feasible strategy profile exists\n")


def _arc(eid, tail, head, cost):
    return {"id": eid, "tail": tail, "head": head, "cost": cost, "capacity": 1}


def test_zero_optimum_ratios_are_flagged_degenerate(tmp_path, capsys):
    path = tmp_path / "inst.json"
    one = {"version": 1, "agents": 1, "nodes": ["s", "t"], "source": "s", "sink": "t", "edges": [_arc(0, "s", "t", "0")]}
    path.write_text(json.dumps(one))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    one_degenerate = {"exact": "1/1", "decimal": 1.0, "degenerate": True}
    assert json.loads(out)["ratios"] == dict.fromkeys(["poa_sc", "pos_sc", "poa_mc", "pos_mc"], one_degenerate)

    # two free routes s-a-t and s-b-t; crossing over a -> b or b -> a costs 1,
    # and the crossed pair is an equilibrium: each agent's free arcs are full
    arcs = [("s", "a", "0"), ("a", "t", "0"), ("s", "b", "0"), ("b", "t", "0"), ("a", "b", "1"), ("b", "a", "1")]
    crossed = {
        "version": 1,
        "agents": 2,
        "nodes": ["s", "a", "b", "t"],
        "source": "s",
        "sink": "t",
        "edges": [_arc(eid, *arc) for eid, arc in enumerate(arcs + [("s", "t", "5")])],
    }
    path.write_text(json.dumps(crossed))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    ratios = json.loads(out)["ratios"]
    assert ratios["poa_sc"] == {"exact": "inf", "decimal": None, "degenerate": True}
    assert ratios["pos_sc"] == one_degenerate


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
    return report._replace(bounds=kept + (violated,))


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


@pytest.mark.parametrize("budget", ["-1", "nan"])
def test_verify_rejects_a_negative_or_nan_budget(capsys, budget):
    code, out, err = run_cli(capsys, "verify", "--only", "C3", "--budget", budget)
    assert code == 2
    assert out == ""
    assert "budget must be a number of seconds >= 0" in err


def test_verify_out_of_budget_exits_4(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "C3", "--budget", "0")
    assert code == 4
    assert "skipped: time budget exhausted" in out
    assert "suite FAIL: 0/1" in out


def test_verify_violation_exits_1_even_out_of_budget(capsys, monkeypatch):
    def violated():
        time.sleep(0.05)  # spends the budget, so C3 is skipped
        return [verification.CheckRow("C1", "a violated claim", "-", "1", "2", False)]

    monkeypatch.setitem(verification.CRITERIA, "C1", violated)
    code, out, _ = run_cli(capsys, "verify", "--only", "C1,C3", "--budget", "0.01")
    assert code == 1
    assert "a violated claim" in out and "skipped: time budget exhausted" in out


def test_gen_random_sp_for_many_agents(capsys):
    code, out, err = run_cli(capsys, "gen", "random-sp", "--n", "100", "--seed", "0")
    assert code == 0, err
    assert json.loads(out)["agents"] == 100


def test_gen_generation_failure_exit_code(capsys, monkeypatch):
    def give_up(seed, agents, **kwargs):
        raise GenerationFailed(f"could not build an asymmetric DAG instance for seed {seed}")

    monkeypatch.setattr(instances, "random_asymmetric", give_up)
    code, _, err = run_cli(capsys, "gen", "random-asymmetric", "--seed", "5", "--n", "2")
    assert code == 2
    assert err == "error: could not build an asymmetric DAG instance for seed 5\n"


def test_internal_assertion_keeps_its_traceback(capsys, monkeypatch):
    # a failed invariant is a bug, not bad input (exit 2) or a violated bound (exit 1)
    def broken(seed, agents, **kwargs):
        raise InternalAssertion("invariant failed")

    monkeypatch.setattr(instances, "random_asymmetric", broken)
    code, out, err = run_cli(capsys, "gen", "random-asymmetric", "--seed", "5", "--n", "2")
    assert (code, out) == (5, "")
    assert err.startswith("Traceback") and err.endswith("InternalAssertion: invariant failed\n")


def test_unexpected_error_exits_5_with_its_traceback(capsys, monkeypatch):
    def broken(seed, agents, **kwargs):
        raise ValueError("not raised on purpose")

    monkeypatch.setattr(instances, "random_asymmetric", broken)
    code, out, err = run_cli(capsys, "gen", "random-asymmetric", "--seed", "5", "--n", "2")
    assert (code, out) == (5, "")
    assert err.startswith("Traceback") and err.endswith("ValueError: not raised on purpose\n")


def test_dynamics_cap_covers_the_deviation_scan(tmp_path, capsys):
    # 14 stages of two parallel edges: one agent has 2**14 = 16,384 paths,
    # more than the default cap but within --cap
    stages = 14
    doc = {
        "version": 1,
        "agents": 1,
        "nodes": list(range(stages + 1)),
        "source": 0,
        "sink": stages,
        "edges": [
            {"id": 2 * i + k, "tail": i, "head": i + 1, "cost": f"{k + 1}/1", "capacity": 1}
            for i in range(stages)
            for k in (0, 1)
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps([list(range(1, 2 * stages, 2))]))
    # from the optimum nobody moves; from the all-odd path one move is made
    for start, steps in (("opt-sc", 0), (str(odd), 1)):
        code, out, err = run_cli(capsys, "dynamics", str(path), "--start", start, "--cap", "20000")
        assert code == 0, err
        trace = json.loads(out)
        assert trace["step_count"] == steps
        assert trace["terminal"]["paths"] == [list(range(0, 2 * stages, 2))]


def _two_link_with_start(tmp_path, capsys, paths):
    inst_path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "two-link", "--n", "3", "--out", str(inst_path))
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(paths))
    return str(inst_path), str(profile_path)


def test_dynamics_rejects_non_integer_profile_ids(tmp_path, capsys):
    # 0.9, true and "1" would read as edges 0, 1 and 1 if coerced
    for paths in ([[0.9], [1], [True]], [[0], ["1"], [1]]):
        inst, start = _two_link_with_start(tmp_path, capsys, paths)
        code, out, err = run_cli(capsys, "dynamics", inst, "--start", start)
        assert code == 2
        assert out == ""
        assert err.startswith("error: profile edge id must be a JSON integer")


def test_dynamics_step_cap_exceeded_exits_3(tmp_path, capsys):
    # two agents share the expensive link; each moves once to the cheap one
    inst, start = _two_link_with_start(tmp_path, capsys, [[0], [1], [1]])
    code, out, _ = run_cli(capsys, "dynamics", inst, "--start", start, "--step-cap", "2")
    assert code == 0
    assert json.loads(out)["step_count"] == 2
    code, out, err = run_cli(capsys, "dynamics", inst, "--start", start, "--step-cap", "1")
    assert code == 3
    assert out == ""
    assert err == "error: dynamics exceeded 1 steps\n"


def test_dynamics_negative_step_cap_exits_2(tmp_path, capsys):
    inst, start = _two_link_with_start(tmp_path, capsys, [[0], [1], [1]])
    code, out, err = run_cli(capsys, "dynamics", inst, "--start", start, "--step-cap", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: step cap must be non-negative, got -1\n"
