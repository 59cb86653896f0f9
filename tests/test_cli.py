"""Command-line entry points, exercised in process."""

import csv

import numpy as np
import pytest

from perchsim.cli import main
from perchsim.sim import EpisodeTrace


@pytest.fixture()
def quick_scenario(tmp_path):
    # the stock static setup trimmed to a short timeout so tests stay fast
    f = tmp_path / "quick.ini"
    f.write_text(
        "[scenario]\n"
        "phi_s_deg = 47\n"
        "[constraints]\n"
        "v_min = -2.6\n"
        "v_max = 2.6\n"
        "[harness]\n"
        "k_p_phi = 450\n"
        "k_d_phi = 32\n"
        "timeout = 3.0\n"
    )
    return f


def test_run_writes_trace_and_summary(quick_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(quick_scenario), "--out", str(out)])
    assert rc == 0
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == EpisodeTrace.COLUMNS
    assert len(rows) > 30
    float(rows[1][0])                            # cells hold parsable floats
    summary = (out / "summary.txt").read_text()
    assert "success: True" in summary
    assert "impact_t:" in summary
    assert "impact_cup:" in summary and "impact_cup_residual_deg:" in summary
    assert "success: True" in capsys.readouterr().out


def test_run_trace_cells_are_exact(quick_scenario, tmp_path):
    out = tmp_path / "out"
    main(["run", "--scenario", str(quick_scenario), "--out", str(out)])
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    ys = np.array([float(r[1]) for r in rows[1:]])
    out2 = tmp_path / "out2"
    main(["run", "--scenario", str(quick_scenario), "--out", str(out2)])
    with open(out2 / "trace.csv", newline="") as fh:
        ys2 = np.array([float(r[1]) for r in list(csv.reader(fh))[1:]])
    assert np.array_equal(ys, ys2)               # repr round-trips bit-for-bit


def test_run_missing_scenario_file(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
    assert rc == 1
    assert "scenario file not found" in capsys.readouterr().err


def test_run_bad_scenario_key(tmp_path, capsys):
    f = tmp_path / "bad.ini"
    f.write_text("[scenario]\nphi_s_deg = 47\nbogus_key = 1\n")
    rc = main(["run", "--scenario", str(f), "--out", str(tmp_path)])
    assert rc == 1
    assert "bogus_key" in capsys.readouterr().err


def test_batch_outputs(quick_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["batch", "--scenario", str(quick_scenario), "--n", "2", "--out", str(out)])
    assert rc == 0
    with open(out / "episodes.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert rows[0][0] == "seed"
    assert [r[0] for r in rows[1:]] == ["0", "1"]
    text = (out / "batch_summary.txt").read_text()
    assert "episodes: 2" in text
    assert "success_rate:" in text
    assert "episodes: 2" in capsys.readouterr().out


def test_batch_seed_flag_shifts_rows(quick_scenario, tmp_path):
    out = tmp_path / "out"
    main(["batch", "--scenario", str(quick_scenario), "--n", "2",
          "--seed", "5", "--out", str(out)])
    with open(out / "episodes.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["5", "6"]


def test_batch_rejects_bad_n(quick_scenario, tmp_path, capsys):
    rc = main(["batch", "--scenario", str(quick_scenario), "--n", "0", "--out", str(tmp_path)])
    assert rc == 1
    assert "--n must be at least 1" in capsys.readouterr().err


def test_bench_reports_percentiles(quick_scenario, capsys):
    rc = main(["bench", "--scenario", str(quick_scenario), "--n", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "p50_ms:" in out and "p73_ms:" in out and "p95_ms:" in out
    assert "fraction_under_10ms:" in out
    lines = dict(line.split(": ") for line in out.splitlines())
    assert float(lines["p95_ms"]) <= float(lines["p99_ms"]) <= float(lines["max_ms"])
    assert 0.0 <= float(lines["fraction_over_33ms"]) <= 1.0
    # a cycle makes at most two array screens, none when its start state is
    # out of band, and each screen holds at least one row
    screens = float(lines["screens_per_cycle"])
    assert 0.0 < screens <= 2.0
    assert float(lines["probes_per_cycle"]) >= max(1.0, screens)
    assert float(lines["episode_ms_mean"]) > 0.0
    assert float(lines["tick_us_excl_plan"]) > 0.0


def test_oracle_small_suite(capsys):
    rc = main(["oracle", "--suite", "minjerk", "--n", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS minjerk:")
    assert "max_position_dev" in out
