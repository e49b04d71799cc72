"""The run's time limit: it grows with --seconds, and a cut run cleans up."""

import os

import run


def test_time_limit_grows_with_the_planned_passes():
    for workload in run.NOMINAL_PASS_S:
        assert run.time_limit(workload, 40, 0) >= run.MIN_LIMIT_S
        for trace in (0, 1):
            planned = (run.pass_count(workload, 600, trace) * run.NOMINAL_PASS_S[workload]
                       * (2 if trace else 1))
            assert run.time_limit(workload, 600, trace) >= 2 * planned


def test_run_with_no_finished_pass_exits_1_and_leaves_no_files(monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_LIMIT_S", 2.0)
    monkeypatch.setattr(run, "SLOWDOWN_ALLOWED", 0)
    before = set(os.listdir(run.HERE / "out")) if (run.HERE / "out").is_dir() else set()
    code = run.main(["--workload", "bl-ladder", "--seed", "0", "--seconds", "40",
                     "--trace", "0"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and "no pass finished" in err
    assert set(os.listdir(run.HERE / "out")) == before
