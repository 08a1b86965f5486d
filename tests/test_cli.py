"""Command-line interface: exit codes, files written, printed summaries."""
import json

import pytest

from slicebed.cli import main

DEMO = "scenarios/demo_3op.json"
DEMO_REQ = "scenarios/demo_request.json"


def test_no_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--scenario", DEMO, "--frobnicate"])
    assert exc.value.code == 2


def test_validate_ok(capsys):
    assert main(["validate", "--scenario", DEMO]) == 0
    out = capsys.readouterr().out
    assert "7 nodes" in out and "16 directed links" in out
    assert "3 operators" in out


def test_validate_missing_file_exits_2(capsys):
    assert main(["validate", "--scenario", "/nonexistent.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_bad_scenario_exits_2(tmp_path, capsys):
    doc = json.load(open(DEMO))
    doc["links"][0]["capacity"] = -1
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_writes_deterministic_scenario(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--seed", "5", "--operators", "2",
            "--nodes-per-op", "4..6", "--pi", "0.8"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "wrote" in capsys.readouterr().out
    # generated file passes validation
    assert main(["validate", "--scenario", str(a)]) == 0


def test_solve_both_engines(tmp_path, capsys):
    code = main(["solve", "--scenario", DEMO, "--request", DEMO_REQ,
                 "--engine", "nl", "--engine", "pl",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "nl: cost 12.6" in out
    assert "pl: cost 12.6" in out
    assert "pl-vs-nl gap: 0" in out
    nl_doc = json.loads((tmp_path / "embedding_nl.json").read_text())
    pl_doc = json.loads((tmp_path / "embedding_pl.json").read_text())
    assert nl_doc["total_cost"] == pytest.approx(12.6)
    assert pl_doc["total_cost"] == pytest.approx(12.6)
    assert len(nl_doc["services"]) == 2


def test_solve_blocked_request_exits_1(tmp_path, capsys):
    doc = json.load(open(DEMO_REQ))
    doc["deny_operators"] = [doc["origin_operator"]]
    doc["allow_operators"] = []
    p = tmp_path / "req.json"
    p.write_text(json.dumps(doc))
    code = main(["solve", "--scenario", DEMO, "--request", str(p),
                 "--engine", "nl"])
    assert code == 1
    assert "blocked: untrustable_request" in capsys.readouterr().out


def test_solve_default_engine_is_nl(capsys):
    assert main(["solve", "--scenario", DEMO, "--request", DEMO_REQ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("nl: cost")
    assert "pl:" not in out


def test_simulate_zero_rate(tmp_path, capsys):
    code = main(["simulate", "--scenario", DEMO, "--lambda", "0",
                 "--horizon", "10", "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "offered 0 blocked 0" in out
    run_dirs = [d for d in tmp_path.iterdir() if d.is_dir()]
    assert len(run_dirs) == 1
    assert run_dirs[0].name.endswith("-s3")
    assert (run_dirs[0] / "metrics.csv").exists()
    assert (run_dirs[0] / "summary.json").exists()
    assert (run_dirs[0] / "timing.json").exists()


def test_simulate_seed_range_makes_one_dir_per_seed(tmp_path, capsys):
    code = main(["simulate", "--scenario", DEMO, "--horizon", "5",
                 "--seeds", "1..3", "--out", str(tmp_path)])
    assert code == 0
    dirs = sorted(d.name for d in tmp_path.iterdir() if d.is_dir())
    assert len(dirs) == 3
    assert {d.rsplit("-s", 1)[1] for d in dirs} == {"1", "2", "3"}
    out = capsys.readouterr().out
    assert out.count("seed ") == 3


def test_simulate_seed_and_seeds_conflict(capsys):
    code = main(["simulate", "--scenario", DEMO, "--seed", "1",
                 "--seeds", "1..2"])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_simulate_reruns_are_bitwise_identical(tmp_path):
    for sub in ("x", "y"):
        assert main(["simulate", "--scenario", DEMO, "--horizon", "30",
                     "--seed", "7", "--events",
                     "--out", str(tmp_path / sub)]) == 0
    xs = sorted((tmp_path / "x").iterdir())
    ys = sorted((tmp_path / "y").iterdir())
    assert [p.name for p in xs] == [p.name for p in ys]
    for px, py in zip(xs, ys):
        for fname in ("metrics.csv", "summary.json", "events.jsonl"):
            fx, fy = px / fname, py / fname
            assert fx.exists() == fy.exists()
            if fx.exists():
                assert fx.read_bytes() == fy.read_bytes(), fname


def test_compare_writes_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SLICEBED_THREADS", "2")
    code = main(["compare", "--scenario", DEMO, "--engine", "pl",
                 "--pricing", "static", "--pricing", "kleinrock",
                 "--horizon", "40", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "pl-static:" in out and "pl-kleinrock:" in out
    csv = (tmp_path / "comparison.csv").read_text().splitlines()
    assert csv[0] == "config,metric,slice_type,value"
    assert any(line.startswith("pl-static-minus-pl-kleinrock,") for line in csv)


def test_compare_single_config_exits_2(capsys):
    code = main(["compare", "--scenario", DEMO, "--engine", "pl"])
    assert code == 2
    assert "at least 2" in capsys.readouterr().err


def test_dump_expanded_stdout_and_file(tmp_path, capsys):
    assert main(["dump-expanded", "--scenario", DEMO,
                 "--request", DEMO_REQ, "--service", "0"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")

    out = tmp_path / "g.dot"
    assert main(["dump-expanded", "--scenario", DEMO, "--request", DEMO_REQ,
                 "--service", "0", "--out", str(out)]) == 0
    assert "21 nodes, 54 edges" in capsys.readouterr().out
    assert out.read_text().startswith("digraph")


def test_dump_expanded_unknown_service_exits_2(capsys):
    assert main(["dump-expanded", "--scenario", DEMO, "--request", DEMO_REQ,
                 "--service", "9"]) == 2
    assert "no service id 9" in capsys.readouterr().err


def test_dump_expanded_blocked_request_exits_1(tmp_path, capsys):
    doc = json.load(open(DEMO_REQ))
    doc["allow_operators"] = []     # sink operator 3 no longer reachable
    p = tmp_path / "req.json"
    p.write_text(json.dumps(doc))
    code = main(["dump-expanded", "--scenario", DEMO, "--request", str(p)])
    assert code == 1
    assert "unreachable_endpoints" in capsys.readouterr().err
