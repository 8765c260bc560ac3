"""The replay script's comparison of two recordings of exact solves."""

import importlib.util
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_replay(monkeypatch):
    # the script puts perfbench/ on the path; keep it off later tests' path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "replay_solves", os.path.join(ROOT, "scripts", "replay_solves.py"))
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    return replay


def solve(nodes=3, stopped_by=None, x="1"):
    return {"problem": "ab12", "budget": 100, "status": "sat",
            "model": {"x": [x, True]}, "nodes": nodes,
            "stopped_by": stopped_by, "rooted": None}


def test_a_changed_model_is_an_answer_change(capsys, monkeypatch):
    before = {"mutate-chain": [solve(), solve()]}
    after = {"mutate-chain": [solve(), solve(x="2")]}
    assert load_replay(monkeypatch).compare(before, after) == 1
    out = capsys.readouterr().out
    assert "solve 1: answer moved in model" in out
    assert "1 answer changes" in out


def test_status_moves_are_counted_and_the_first_answer_changes_listed(
        capsys, monkeypatch):
    replay = load_replay(monkeypatch)
    unknown = dict(solve(), status="unknown", model={})
    unsat = dict(unknown, status="unsat")
    before = {"mutate-chain": [unknown] * 12 + [solve()],
              "verify-rows": [solve(), solve()]}
    after = {"mutate-chain": [unsat] * 12 + [unknown],
             "verify-rows": [solve(), solve(x="2")]}
    assert replay.compare(before, after) == 1
    out = capsys.readouterr().out
    assert "14 answer changes" in out
    # one count per move and workload; a model change moves no status
    assert re.findall(r"^  (\w+ -> \w+: \d+)$", out, re.M) \
        == ["sat -> unknown: 1", "unknown -> unsat: 12"]
    assert out.index("unknown -> unsat") < out.index("verify-rows:")
    listed = [line for line in out.splitlines() if "answer moved" in line]
    assert len(listed) == replay.MOVES_LISTED
    assert listed[0] == ("  mutate-chain solve 0: answer moved in status:"
                         " ['unknown'] -> ['unsat']")


def test_node_and_stop_moves_are_listed_and_pass(capsys, monkeypatch):
    replay = load_replay(monkeypatch)
    before = {"verify-rows": [solve()] * 12,
              "mutate-chain": [solve(), solve(stopped_by="budget")]}
    after = {"verify-rows": [solve(nodes=4)] * 12,
             "mutate-chain": [solve(), solve(stopped_by="cut")]}
    assert replay.compare(before, after) == 0
    out = capsys.readouterr().out
    assert "0 answer changes" in out
    assert "13 solves moved nodes or stopped_by" in out
    listed = [line for line in out.splitlines() if " solve " in line]
    assert len(listed) == replay.MOVES_LISTED
    assert listed[0] == ("  mutate-chain solve 1: nodes 3 -> 3,"
                         " stopped_by budget -> cut")
    assert listed[1] == ("  verify-rows solve 0: nodes 3 -> 4,"
                         " stopped_by None -> None")


def test_a_dropped_solve_leaves_the_later_pairs_in_place(capsys, monkeypatch):
    replay = load_replay(monkeypatch)
    a, b, c = (dict(solve(), problem=p) for p in ("aa", "bb", "cc"))
    before = {"mutate-chain": [a, b, c, a]}
    assert replay.compare(before, {"mutate-chain": [a, c, a]}) == 1
    out = capsys.readouterr().out
    assert "  1 dropped, 0 added" in out
    assert "0 answer changes" in out
    assert "  mutate-chain solve 1: dropped ('bb', 100, 'ExactSolver')" in out
    changed = dict(c, model={"x": ["2", True]})
    assert replay.compare(before, {"mutate-chain": [a, changed, a]}) == 1
    out = capsys.readouterr().out
    assert "solve 2: answer moved in model" in out
    assert "1 answer changes" in out


def test_an_added_solve_and_a_root_solve_pair_apart(capsys, monkeypatch):
    replay = load_replay(monkeypatch)
    exact, rooted = solve(), dict(solve(), rooted=False)
    assert replay.compare({"verify-rows": [exact]},
                          {"verify-rows": [rooted, exact]}) == 1
    out = capsys.readouterr().out
    assert "  0 dropped, 1 added" in out
    assert "0 answer changes" in out
    assert "verify-rows solve 0: added ('ab12', 100, 'RootSolver')" in out


def fake_workload(monkeypatch, replay, scripts):
    """Point the replay at a ``verify-rows`` run list that solves each of
    ``scripts`` with the exact solver."""
    from mathmorph.parser import parse

    class Workload:
        pool = [parse(s + "(check-sat)") for s in scripts]

        def __init__(self, tmp):
            pass

        def run_item(self, problem):
            from mathmorph.minisolver import ExactSolver
            ExactSolver(problem).solve()

        def close(self):
            pass

    fake = type(sys)("workloads")
    fake.WORKLOADS = {"verify-rows": Workload}
    monkeypatch.setitem(sys.modules, "workloads", fake)
    monkeypatch.setattr(replay, "use_source_tree", lambda: None)


# x and y are left to the search, and no closure compiles a power, so the
# symbolic step substitutes and folds (= (^ y 1) (+ x 1)) to bound and pin
# y; in the second problem propagation pins x through a function, but
# outside the search
SCRIPTS = ["(declare-fun x () Int)(declare-fun y () Int)"
           "(assert (>= x 0))(assert (<= x 3))"
           "(assert (= (^ y 1) (+ x 1)))(assert (> (+ x y) 4))",
           "(declare-fun x () Int)(assert (= (+ x (abs 1)) 4))"]


def test_substitutions_are_counted_per_solve_and_only_in_the_search(
        capsys, monkeypatch):
    replay = load_replay(monkeypatch)
    fake_workload(monkeypatch, replay, SCRIPTS)
    solves = replay.record(["verify-rows"])["verify-rows"]
    assert [s["status"] for s in solves] == ["sat", "sat"]
    assert [s["substitutions"] for s in solves] == [7, 0]
    # the counts are summed per side, and no answer moved
    after = [dict(s, substitutions=0) for s in solves]
    assert replay.compare({"verify-rows": solves},
                          {"verify-rows": after}) == 0
    out = capsys.readouterr().out
    assert "'substitutions': 7" in out and "'substitutions': 0" in out
    assert "0 answer changes" in out


def test_a_tree_timed_against_itself_differs_in_no_solve(capsys, monkeypatch):
    replay = load_replay(monkeypatch)
    fake_workload(monkeypatch, replay, SCRIPTS)
    assert replay.time_trees(ROOT, ROOT, ["verify-rows"]) == 0
    out = capsys.readouterr().out
    assert "verify-rows: 2 solves, A " in out
    assert f"of {replay.ROUNDS}\n" in out
    assert "0 solves differ" in out
    assert not any(m.startswith("mathmorph_tree") for m in sys.modules)


def test_the_timer_prints_each_trees_per_solve_tail(capsys, monkeypatch):
    replay = load_replay(monkeypatch)
    # nearest rank over 10 solves: p50 is the 5th fastest, p90 the 9th
    assert replay.tail(k / 1e3 for k in range(10, 0, -1)) \
        == "p50 5.000 ms, p90 9.000 ms, max 10.000 ms"
    assert replay.tail([0.002]) == "p50 2.000 ms, p90 2.000 ms, max 2.000 ms"
    fake_workload(monkeypatch, replay, SCRIPTS)
    assert replay.time_trees(ROOT, ROOT, ["verify-rows"]) == 0
    out = capsys.readouterr().out
    tails = re.findall(r"^  ([AB]) per solve: p50 ([\d.]+) ms, p90 ([\d.]+)"
                       r" ms, max ([\d.]+) ms$", out, re.M)
    assert [side for side, *_ in tails] == ["A", "B"]
    for _, p50, p90, top in tails:
        assert 0 < float(p50) <= float(p90) <= float(top)


def test_the_timer_prints_each_trees_parse_seconds(capsys, monkeypatch):
    replay = load_replay(monkeypatch)
    fake_workload(monkeypatch, replay, SCRIPTS)
    assert replay.time_trees(ROOT, ROOT, ["verify-rows"]) == 0
    out = capsys.readouterr().out
    [(a, b, ratio)] = re.findall(r"^  parse: A ([\d.]+) s, B ([\d.]+) s,"
                                 r" speed-up ([\d.]+)x$", out, re.M)
    assert float(a) > 0 and float(b) > 0 and float(ratio) > 0
    # the parse line follows its workload's solve line
    assert out.index("verify-rows: 2 solves") < out.index("  parse: A")
