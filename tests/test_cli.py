"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.integration


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_info(capsys):
    code, out = run_cli(capsys, "info")
    assert code == 0
    assert "raincore-repro" in out
    assert "e1" in out and "e11" in out
    assert "DESIGN.md" in out


def test_quickstart(capsys):
    code, out = run_cli(capsys, "quickstart", "--nodes", "3", "--seed", "5")
    assert code == 0
    assert "group formed" in out
    assert "rejoined via 911" in out
    assert "task switches" in out


def test_trace(capsys):
    code, out = run_cli(capsys, "trace", "--duration", "0.1", "--limit", "20")
    assert code == 0
    assert "down -> joining" in out
    assert "token" in out


def test_trace_kind_filter(capsys):
    code, out = run_cli(
        capsys, "trace", "--duration", "0.1", "--kinds", "view", "--limit", "50"
    )
    assert code == 0
    assert "view" in out
    assert "token" not in out


def test_merge(capsys):
    code, out = run_cli(capsys, "merge")
    assert code == 0
    assert "split-brain: 3 independent groups" in out
    assert "healed and merged" in out


@pytest.mark.slow
def test_failover(capsys):
    code, out = run_cli(capsys, "failover")
    assert code == 0
    assert "worst connection hiccup" in out
    assert "connections lost: 0" in out


@pytest.mark.slow
def test_scaling_small(capsys):
    code, out = run_cli(capsys, "scaling", "--nodes", "1", "2")
    assert code == 0
    assert "2.0" in out  # ~2x scaling appears in the table


@pytest.mark.slow
def test_soak_short(capsys):
    code, out = run_cli(
        capsys, "soak", "--nodes", "5", "--duration", "8", "--seed", "3"
    )
    assert code == 0
    assert "converged after quiescence: True" in out
    assert "duplicate deliveries: 0" in out


def test_trace_swimlanes(capsys):
    code, out = run_cli(
        capsys, "trace", "--duration", "0.05", "--swimlanes", "--limit", "8"
    )
    assert code == 0
    header = out.splitlines()[0]
    assert "A" in header and "B" in header and "C" in header


def test_hierarchy_command(capsys):
    code, out = run_cli(capsys, "hierarchy", "--groups", "2", "--group-size", "2")
    assert code == 0
    assert "top ring" in out
    assert "reached 4/4" in out


# ----------------------------------------------------------------------
# obs: exit codes, --quiet, diff
# ----------------------------------------------------------------------
def export_probes(capsys, path, seed):
    code, out = run_cli(
        capsys,
        "obs",
        "export",
        "--seed",
        str(seed),
        "--duration",
        "0.3",
        "--no-crash",
        "--out",
        str(path),
    )
    assert code == 0
    return path


def test_obs_diff_identical_exports_exit_zero(capsys, tmp_path):
    a = export_probes(capsys, tmp_path / "a.jsonl", seed=5)
    b = export_probes(capsys, tmp_path / "b.jsonl", seed=5)
    code, out = run_cli(capsys, "obs", "diff", str(a), str(b))
    assert code == 0
    assert "no divergence" in out


def test_obs_diff_divergence_exits_one(capsys, tmp_path):
    a = export_probes(capsys, tmp_path / "a.jsonl", seed=5)
    b = export_probes(capsys, tmp_path / "b.jsonl", seed=6)
    code, out = run_cli(capsys, "obs", "diff", str(a), str(b))
    assert code == 1
    assert "first divergence at event #" in out
    # --quiet keeps the verdict line (and the exit code) only.
    code, out = run_cli(capsys, "obs", "diff", "--quiet", str(a), str(b))
    assert code == 1
    assert out.startswith("first divergence at event #")
    assert len(out.strip().splitlines()) == 1


def test_obs_diff_load_failure_exits_two(capsys, tmp_path):
    a = export_probes(capsys, tmp_path / "a.jsonl", seed=5)
    code = main(["obs", "diff", str(a), str(tmp_path / "missing.jsonl")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "missing.jsonl" in captured.err


def test_obs_render_missing_bundle_exits_two(capsys, tmp_path):
    code = main(["obs", "render", str(tmp_path / "no-such.bundle.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: cannot read bundle" in captured.err


def test_obs_render_corrupt_bundle_exits_two(capsys, tmp_path):
    bad = tmp_path / "corrupt.bundle.json"
    bad.write_text("{not json")
    code = main(["obs", "render", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "not JSON" in captured.err


def test_obs_render_bad_span_exits_two(capsys, tmp_path):
    from repro.obs import build_bundle, dump_bundle

    path = dump_bundle(
        build_bundle("manual", at=0.0), tmp_path / "ok.bundle.json"
    )
    code = main(["obs", "render", str(path), "--span", "nonsense"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--span takes ORIGIN#N" in captured.err


def test_trace_quiet_suppresses_output(capsys):
    code, out = run_cli(capsys, "trace", "--duration", "0.05", "--quiet")
    assert code == 0
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--limit", "-3"],
        ["obs", "render", "x.bundle.json", "--limit", "-1"],
        ["obs", "timeline", "--limit", "-2"],
        ["prof", "--aggregate"],
    ],
)
def test_bad_options_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_trace_limit_zero_prints_only_the_count(capsys):
    code, out = run_cli(capsys, "trace", "--duration", "0.1", "--limit", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("... ") and lines[0].endswith(" more events")
    assert int(lines[0].split()[1]) > 0


def test_obs_export_quiet_still_writes_file(capsys, tmp_path):
    out_path = tmp_path / "quiet.jsonl"
    code, out = run_cli(
        capsys,
        "obs",
        "export",
        "--seed",
        "5",
        "--duration",
        "0.3",
        "--no-crash",
        "--quiet",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text().strip()


# ----------------------------------------------------------------------
# watch: the live contract-monitor view
# ----------------------------------------------------------------------
def test_watch_clean_run_gates_green(capsys):
    code, out = run_cli(
        capsys,
        "watch",
        "--seconds",
        "5",
        "--seed",
        "11",
        "--fail-on-alerts",
    )
    assert code == 0
    assert "no contract alerts" in out
    assert "t=" in out  # the periodic status feed ran
    assert "ALERT" not in out


def test_watch_known_bad_spike_schedule_fires(capsys):
    code, out = run_cli(
        capsys,
        "watch",
        "--seconds",
        "6",
        "--seed",
        "11",
        "--spike-at",
        "2",
        "--expect-alerts",
    )
    assert code == 0  # --expect-alerts inverts the gate
    assert "ALERT" in out
    assert "token-rate" in out


def test_watch_fail_on_alerts_exits_one(capsys):
    code, out = run_cli(
        capsys,
        "watch",
        "--seconds",
        "6",
        "--seed",
        "11",
        "--spike-at",
        "2",
        "--fail-on-alerts",
    )
    assert code == 1
    assert "ALERT" in out


def test_watch_expect_alerts_on_clean_run_exits_one(capsys):
    code, out = run_cli(
        capsys, "watch", "--seconds", "4", "--seed", "11", "--expect-alerts"
    )
    assert code == 1
    assert "expected at least one contract alert" in out


def test_chaos_replay_missing_trace_exits_two(capsys, tmp_path):
    code = main(["chaos", "--replay", str(tmp_path / "no-such-trace.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: cannot read trace" in captured.err


def test_chaos_replay_malformed_trace_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad-trace.json"
    bad.write_text('{"format": "something-else"}')
    code = main(["chaos", "--replay", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "is not a chaos trace" in captured.err
