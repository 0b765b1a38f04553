"""Tests for the command-line interface."""

import argparse
import json
import re
from pathlib import Path

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
        ["obs", "timeline", "x.jsonl", "--limit", "-2"],
        ["obs", "timeline"],
        ["obs", "summary"],
        ["prof"],  # the wall-clock profiler command is gone
        ["chaos", "--campaign", "0"],
        ["chaos", "--campaign", "-2", "--fail-on-alerts"],
        ["trace", "--nodes", "0"],
        ["quickstart", "--nodes", "0"],
        ["obs", "export", "--nodes", "0"],
        ["hierarchy", "--groups", "0"],
        ["hierarchy", "--group-size", "0"],
        ["scaling", "--nodes", "2", "0"],
    ],
)
def test_bad_options_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["chaos", "--seconds", "nan"], "seconds must be positive and finite"),
        (["chaos", "--seconds", "inf"], "seconds must be positive and finite"),
        (["chaos", "--seconds", "-3"], "seconds must be positive and finite"),
        (
            ["chaos", "--seconds", "nan", "--print-trace"],
            "seconds must be positive and finite",
        ),
        (
            ["chaos", "--seconds", "inf", "--partition", "n00:1"],
            "seconds must be positive and finite",
        ),
        (["chaos", "--intensity", "nan"], "intensity must be non-negative"),
        (["chaos", "--intensity", "inf"], "intensity must be non-negative"),
        (["chaos", "--partition", "n00:nan"], "bad --partition spec"),
        (["chaos", "--partition", "n00:5:inf"], "bad --partition spec"),
        (["top", "--seconds", "nan"], "seconds must be positive and finite"),
        (["top", "--seconds", "inf"], "seconds must be positive and finite"),
    ],
)
def test_non_finite_run_inputs_exit_two(capsys, argv, message):
    # Regression: NaN and inf passed the ``<= 0`` / ``< 0`` checks and then
    # crashed (or, for NaN seconds, never stopped) the simulation; each
    # must be refused before the run starts (``top``: before any spawn).
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read"),
        (b"{not json", "is not JSON"),
        (b"[1, 2]", "is not a bill"),
    ],
    ids=["missing", "malformed", "not-an-object"],
)
def test_bad_bench_pin_exits_two(capsys, tmp_path, content, message):
    # Regression: a lost or broken pin raised a traceback and exited 1,
    # which CI reads as "BILL MOVED".  It is a usage error: exit 2, before
    # the bill runs.
    pin = tmp_path / "pin.json"
    if content is not None:
        pin.write_bytes(content)
    code = main(["bench", "--check", str(pin)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


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


def test_obs_timeline_reads_an_export(capsys, tmp_path):
    """``obs timeline FILE`` rebuilds exactly the spans of the run that was
    exported, so ``--check`` over the file is the paper-bounds gate."""
    from repro.obs import reconstruct_spans
    from repro.obs.scenario import run_quickstart

    path = tmp_path / "default.jsonl"
    code, _ = run_cli(capsys, "obs", "export", "--out", str(path))
    assert code == 0
    code, out = run_cli(capsys, "obs", "timeline", str(path), "--check")
    assert code == 0
    expected = reconstruct_spans(run_quickstart().events)
    assert out.startswith(expected.render() + "\n")
    assert "bounds check: 0 breach(es)" in out

    spans = tmp_path / "spans.jsonl"
    code, _ = run_cli(capsys, "obs", "timeline", str(path), "--out", str(spans))
    assert code == 0
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    assert rows == expected.to_records()


def test_obs_summary_reads_an_export(capsys, tmp_path):
    path = export_probes(capsys, tmp_path / "a.jsonl", seed=5)
    code, out = run_cli(capsys, "obs", "summary", str(path))
    assert code == 0
    assert out.startswith(f"capture {path}: ")
    assert "by kind:" in out and "token.accept" in out


# ----------------------------------------------------------------------
# chaos: the contract-monitor gates on simulated fault runs
# ----------------------------------------------------------------------
def spike_trace(tmp_path):
    """The known-bad schedule: from t=2 every packet is 35 ms late, which
    slows the ring below the token-rate floor without partitioning it."""
    from repro.chaos import ChaosParams, FaultOp, Schedule

    schedule = Schedule(
        params=ChaosParams(nodes=4, seconds=6.0, seed=11, segments=1),
        ops=[FaultOp(at=2.0, kind="spike", args=("net0", 1.0, 0.035))],
    )
    path = tmp_path / "spike.json"
    path.write_text(schedule.to_json())
    return path


def test_chaos_clean_run_gates_green(capsys, tmp_path):
    code, out = run_cli(
        capsys, "chaos", "--nodes", "4", "--seconds", "10", "--seed", "11",
        "--fail-on-alerts", "--artifacts", str(tmp_path),
    )
    assert code == 0
    assert "clean" in out
    assert "contract alert" not in out


def test_chaos_replay_spike_schedule_fires_token_rate(capsys, tmp_path):
    code, out = run_cli(
        capsys, "chaos", "--replay", str(spike_trace(tmp_path)),
        "--artifacts", str(tmp_path),
    )
    assert code == 0  # alerts alone do not fail a run
    assert "contract alert(s):" in out
    assert "token-rate" in out


def test_chaos_replay_spike_fail_on_alerts_exits_one(capsys, tmp_path):
    code, out = run_cli(
        capsys, "chaos", "--replay", str(spike_trace(tmp_path)),
        "--fail-on-alerts", "--artifacts", str(tmp_path),
    )
    assert code == 1
    assert "failing: contract alerts fired (--fail-on-alerts)" in out


# ----------------------------------------------------------------------
# top: bad input is a usage error before any worker spawns
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv, message",
    [
        (["top", "--procs", "1"], "need at least 2 worker processes"),
        (
            ["top", "--procs", "2", "--kill", "n09@0.5"],
            "kill targets not in the cluster",
        ),
        (["top", "--kill", "n02"], "--kill takes NODE@T"),
        (["top", "--kill", "n02@soon"], "is not a number"),
        (["top", "--procs", "2", "--seconds", "nan"], "seconds must be positive"),
    ],
    ids=[
        "one-proc",
        "kill-outside-cluster",
        "kill-without-time",
        "kill-time-nan",
        "seconds-nan",
    ],
)
def test_top_bad_input_exits_two(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


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


# ----------------------------------------------------------------------
# drift: the docs name only commands and options the parser has
# ----------------------------------------------------------------------
ROOT = Path(__file__).resolve().parent.parent
_COMMAND = re.compile(r"(?<!from )\brepro ([a-z][a-z-]*)(?: ([a-z][a-z-]*))?")
# A command line ends at a closing backtick, a line end that is not a
# ``\`` continuation, or a shell separator.
_LINE_END = re.compile(r"`|(?<!\\)\n|&&|\|\||[|;]")
_FLAG = re.compile(r"(?:^|\s)(--[a-z][a-z0-9-]*)")


def _documented_commands():
    """``(file, cmd, sub, tail)`` for every ``repro <cmd> [<sub>]`` in the
    current docs: README.md, CONTRIBUTING.md, docs/*.md, the verification
    notes (``SKILL.md``) and the CI workflow.  ``tail`` is the rest of that
    command line.  History files (FINDINGS.md, the changelogs, the
    roadmap) record commands that no longer exist and are not read."""
    docs = [ROOT / "README.md", ROOT / "CONTRIBUTING.md"]
    docs += sorted(ROOT.glob(".*/skills/*/SKILL.md"))
    docs += [p for p in sorted((ROOT / "docs").glob("*.md")) if p.name != "FINDINGS.md"]
    docs.append(ROOT / ".github" / "workflows" / "ci.yml")
    for path in docs:
        text = path.read_text()
        for m in _COMMAND.finditer(text):
            end = _LINE_END.search(text, m.end(1))
            tail = text[m.end(1) : end.start() if end else len(text)]
            yield path.relative_to(ROOT), m.group(1), m.group(2), tail


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_docs_name_only_existing_subcommands():
    commands = _subcommands(build_parser())
    seen = set()
    for path, cmd, sub, tail in _documented_commands():
        seen.add(cmd)
        assert cmd in commands, f"{path} names `repro {cmd}`, which is gone"
        parser = commands[cmd]
        nested = _subcommands(parser)
        if nested and sub is not None:
            assert sub in nested, f"{path} names `repro {cmd} {sub}`, which is gone"
            parser = nested[sub]
            tail = tail.split(sub, 1)[1]
        for flag in _FLAG.findall(tail):
            assert flag in parser._option_string_actions, (
                f"{path} names `repro {cmd}{f' {sub}' if nested and sub else ''} "
                f"{flag}`, which is not an option"
            )
    assert {"chaos", "top", "obs"} <= seen
