"""CLI smoke and behavior tests (driven in-process through main)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.ugraph import read_edge_list


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["summary", "ppi"])
    assert args.command == "summary"


def test_generate_and_summary(tmp_path, capsys):
    out = tmp_path / "g.pel"
    assert main(["generate", "ppi", str(out), "--scale", "0.2",
                 "--seed", "1"]) == 0
    assert out.exists()
    graph = read_edge_list(out)
    assert graph.n_edges > 0
    capsys.readouterr()  # drop the generate progress line

    assert main(["summary", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"] == graph.n_nodes


def test_anonymize_and_check_and_evaluate(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    assert main(["generate", "ppi", str(source), "--scale", "0.2",
                 "--seed", "2"]) == 0
    capsys.readouterr()

    code = main([
        "anonymize", str(source), str(target),
        "--method", "me", "--k", "4", "--epsilon", "0.08",
        "--trials", "2", "--seed", "3",
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["success"] is True
    assert target.exists()

    code = main(["check", str(target), "--k", "4", "--epsilon", "0.08",
                 "--original", str(source)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["satisfied"] is True

    code = main(["evaluate", str(source), str(target), "--samples", "60",
                 "--seed", "4"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "average_degree" in rows


def test_check_failure_exit_code(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "5"])
    capsys.readouterr()
    # An unanonymized heavy-tailed graph cannot satisfy a huge k.
    code = main(["check", str(source), "--k", "60", "--epsilon", "0.0"])
    assert code == 1


def test_error_reported_as_exit_2(tmp_path, capsys):
    code = main(["summary", "/does/not/exist.pel"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_report_subcommand(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    report_path = tmp_path / "release.md"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "6"])
    main(["anonymize", str(source), str(target), "--method", "me",
          "--k", "4", "--epsilon", "0.08", "--trials", "2", "--seed", "7"])
    capsys.readouterr()

    code = main(["report", str(source), str(target), "--k", "4",
                 "--epsilon", "0.08", "--samples", "40", "--seed", "8",
                 "--output", str(report_path)])
    assert code == 0
    text = report_path.read_text()
    assert text.startswith("# Uncertain-graph anonymization report")
    assert "SATISFIED" in text


def test_report_to_stdout(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "9"])
    capsys.readouterr()
    code = main(["report", str(source), str(source), "--k", "2",
                 "--epsilon", "0.5", "--samples", "30", "--seed", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "## Utility preservation" in out


def test_anonymize_repan_method(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "14"])
    capsys.readouterr()
    code = main([
        "anonymize", str(source), str(target),
        "--method", "rep-an", "--k", "3", "--epsilon", "0.1",
        "--trials", "2", "--seed", "15",
    ])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["method"] == "rep-an"
    assert target.exists()


def test_anonymize_failure_exit_code(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "16"])
    capsys.readouterr()
    # k close to n with zero tolerance is unachievable (but valid input).
    code = main([
        "anonymize", str(source), str(target),
        "--method", "me", "--k", "60", "--epsilon", "0.0",
        "--trials", "1", "--seed", "17",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "FAILED" in err
    assert not target.exists()


def test_sweep_subcommand(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "12"])
    capsys.readouterr()
    code = main(["sweep", str(source), "--k", "3", "5",
                 "--epsilon", "0.08", "--method", "me",
                 "--trials", "2", "--samples", "60", "--seed", "13"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert any(ln.strip().startswith("3") for ln in lines)
    assert any(ln.strip().startswith("5") for ln in lines)
    assert "FAILED" not in out


def test_diagnose_subcommand(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "11"])
    capsys.readouterr()

    code = main(["diagnose", str(source), "--k", "4", "--epsilon", "0.05"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["feasible"] is True

    # An absurd k on a tiny graph is structurally infeasible: exit 1.
    code = main(["diagnose", str(source), "--k", "10000",
                 "--epsilon", "0.0"])
    assert code == 1


def test_backend_flags_parse():
    parser = build_parser()
    for command_tail in (
        ["anonymize", "a.pel", "b.pel", "--k", "3"],
        ["check", "a.pel", "--k", "3"],
        ["evaluate", "a.pel", "b.pel"],
    ):
        args = parser.parse_args(command_tail + ["--workers", "2"])
        assert args.workers == 2
        assert not hasattr(args, "backend")


def test_checker_flag_parses_and_rejects_unknown(capsys):
    """The check always runs on the incremental cache: no --checker."""
    parser = build_parser()
    args = parser.parse_args(["anonymize", "a.pel", "b.pel", "--k", "3"])
    assert not hasattr(args, "checker")
    with pytest.raises(SystemExit):
        parser.parse_args(
            ["anonymize", "a.pel", "b.pel", "--k", "3", "--checker", "full"]
        )
    capsys.readouterr()


def test_anonymize_with_full_checker(tmp_path, capsys):
    """The CLI's output equals a library run whose check is the
    full-recompute oracle (both consume the rng identically)."""
    from repro._oracles import FullRecomputeChecker
    from repro.core import anonymize
    from repro.privacy import expected_degree_knowledge
    from repro.ugraph import read_edge_list, write_edge_list

    source = tmp_path / "orig.pel"
    a = tmp_path / "anon-incremental.pel"
    b = tmp_path / "anon-full.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "6"])
    capsys.readouterr()
    assert main(["anonymize", str(source), str(a), "--method", "me",
                 "--k", "4", "--epsilon", "0.08", "--trials", "2",
                 "--seed", "7"]) == 0
    capsys.readouterr()
    graph = read_edge_list(source)
    oracle = FullRecomputeChecker(graph, expected_degree_knowledge(graph))
    result = anonymize(graph, 4, 0.08, method="me", seed=7, n_trials=2,
                       degree_cache=oracle)
    write_edge_list(result.graph.dropping_zero_edges(), b)
    assert a.read_text() == b.read_text()


def test_backend_flag_rejects_unknown(capsys):
    """--backend and --engine are gone: argparse rejects them."""
    parser = build_parser()
    for flag, value in (("--backend", "scipy"), ("--engine", "fresh")):
        with pytest.raises(SystemExit):
            parser.parse_args(["evaluate", "a.pel", "b.pel", flag, value])
    capsys.readouterr()


def test_workers_flag_rejects_non_positive(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["evaluate", "a.pel", "b.pel", "--workers", "0"])
    capsys.readouterr()


def test_pipeline_with_batched_backend(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "21"])
    capsys.readouterr()

    code = main([
        "anonymize", str(source), str(target),
        "--method", "rsme", "--k", "3", "--epsilon", "0.1",
        "--trials", "2", "--seed", "22", "--workers", "1",
    ])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["success"] is True

    code = main(["check", str(target), "--k", "3", "--epsilon", "0.1",
                 "--original", str(source), "--workers", "1"])
    capsys.readouterr()
    assert code == 0

    code = main(["evaluate", str(source), str(target), "--samples", "40",
                 "--seed", "23", "--workers", "1"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "reliability" in rows


def test_resilience_flags_parse():
    parser = build_parser()
    args = parser.parse_args([
        "anonymize", "a.pel", "b.pel", "--k", "3",
        "--trial-timeout", "5.0", "--max-retries", "1",
        "--checkpoint", "search.jsonl", "--resume",
        "--faults", "crash@0.0",
    ])
    assert args.trial_timeout == 5.0
    assert args.max_retries == 1
    assert args.checkpoint == "search.jsonl"
    assert args.resume is True
    assert args.faults == "crash@0.0"
    # Defaults: no timeout, no checkpoint, faults deferred to the env.
    args = parser.parse_args(["anonymize", "a.pel", "b.pel", "--k", "3"])
    assert args.trial_timeout is None
    assert args.checkpoint is None
    assert args.resume is False
    assert args.faults is None


def test_resume_without_checkpoint_exit_2(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "30"])
    capsys.readouterr()
    code = main([
        "anonymize", str(source), str(tmp_path / "anon.pel"),
        "--method", "me", "--k", "4", "--epsilon", "0.08",
        "--trials", "2", "--seed", "31", "--resume",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_exhausted_supervision_exit_3(tmp_path, capsys):
    """An unbounded crash plan kills every rung of the degradation
    ladder: the CLI must report it as exit 3, distinct from both
    infeasibility (1) and bad input (2)."""
    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "32"])
    capsys.readouterr()
    code = main([
        "anonymize", str(source), str(target),
        "--method", "me", "--k", "4", "--epsilon", "0.08",
        "--trials", "2", "--seed", "33", "--trial-backend", "thread",
        "--faults", "crash@*.*x100000", "--max-retries", "0",
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "resilience error" in err
    assert not target.exists()


def test_fault_recovery_matches_clean_run(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    clean = tmp_path / "clean.pel"
    faulted = tmp_path / "faulted.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "34"])
    capsys.readouterr()
    common = ["--method", "me", "--k", "4", "--epsilon", "0.08",
              "--trials", "2", "--seed", "35", "--trial-backend", "thread"]
    assert main(["anonymize", str(source), str(clean)] + common) == 0
    capsys.readouterr()
    assert main(["anonymize", str(source), str(faulted),
                 "--faults", "crash@0.0"] + common) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trial_retries"] >= 1
    assert clean.read_text() == faulted.read_text()


def test_checkpoint_resume_roundtrip(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    first = tmp_path / "first.pel"
    resumed = tmp_path / "resumed.pel"
    journal = tmp_path / "search.jsonl"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "36"])
    capsys.readouterr()
    common = ["--method", "me", "--k", "4", "--epsilon", "0.08",
              "--trials", "2", "--seed", "37",
              "--checkpoint", str(journal)]
    assert main(["anonymize", str(source), str(first)] + common) == 0
    capsys.readouterr()
    assert journal.exists()
    assert main(["anonymize", str(source), str(resumed),
                 "--resume"] + common) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["resumed_probes"] > 0
    assert first.read_text() == resumed.read_text()


def test_evaluate_backend_equivalence(tmp_path, capsys, monkeypatch):
    """Labeling on the process pool must not change seeded evaluate
    output."""
    from repro.reliability import connectivity

    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "24"])
    main(["anonymize", str(source), str(target), "--method", "me",
          "--k", "3", "--epsilon", "0.1", "--trials", "2", "--seed", "25"])
    capsys.readouterr()

    monkeypatch.setattr(connectivity, "AUTO_PROCESS_CELLS", 0)
    outputs = []
    for workers in ("1", "2"):
        code = main(["evaluate", str(source), str(target), "--samples", "40",
                     "--seed", "26", "--workers", workers])
        assert code == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_broken_pipe_exits_141(monkeypatch, capsys):
    """A vanished consumer (`chameleon ... | head`) is the conventional
    128 + SIGPIPE exit, not the internal-error exit 4."""
    from repro import cli

    def raiser(args, out, err, runtime):
        raise BrokenPipeError

    monkeypatch.setitem(cli._COMMANDS, "capabilities", raiser)
    assert cli.main(["capabilities"]) == 141
    assert "internal error" not in capsys.readouterr().err
