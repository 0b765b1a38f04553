"""Tests for raincheck (src/repro/lint): one test per rule id, pragma
semantics, output stability, CLI exit codes, and the self-hosting check
that keeps the repo itself clean under ``--strict``.

The deliberately-bad snippets live in tests/data/lint_fixtures/ — that
directory is in the linter's DEFAULT_EXCLUDES precisely so the self-host
run does not trip over them.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.cli import main
from repro.lint import (
    DEFAULT_EXCLUDES,
    RULES,
    build_project,
    format_human,
    format_json,
    run,
)
from repro.lint.pragmas import scan_pragmas

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "data" / "lint_fixtures"
NO_EXCLUDES = frozenset()


def lint_paths(*paths, strict=False, select=None):
    project = build_project([str(p) for p in paths], excludes=NO_EXCLUDES)
    return run(project, select=select, strict=strict)


def fired(report):
    return {v.rule for v in report.violations}


def count(report, rule_id):
    return sum(1 for v in report.violations if v.rule == rule_id)


# ----------------------------------------------------------------------
# catalogue + clean baseline
# ----------------------------------------------------------------------
def test_rule_catalogue_is_complete():
    assert set(RULES) == {
        "RC000", "RC001", "RC002", "RC003",
        "RC101", "RC102", "RC103", "RC104", "RC105",
        "RC201", "RC202", "RC203", "RC204", "RC205",
        "RC301", "RC302",
        "RC401", "RC402", "RC403",
        "RC501", "RC502", "RC503", "RC504", "RC505", "RC506",
    }
    for rule in RULES.values():
        assert rule.scope in ("file", "project", "meta")
        assert rule.summary


def test_clean_fixture_is_clean_even_strict():
    report = lint_paths(FIXTURES / "clean.py", strict=True)
    assert report.ok, format_human(report)
    assert report.files_checked == 1


# ----------------------------------------------------------------------
# RC0xx — engine meta findings
# ----------------------------------------------------------------------
def test_rc000_syntax_error():
    report = lint_paths(FIXTURES / "rc000_syntax_error.py")
    assert fired(report) == {"RC000"}
    assert report.files_checked == 0  # unparsable files are not rule input


def test_rc001_malformed_pragma():
    report = lint_paths(FIXTURES / "pragma_malformed.py")
    assert fired(report) == {"RC001"}


def test_rc001_unknown_rule_id():
    report = lint_paths(FIXTURES / "pragma_unknown.py")
    assert fired(report) == {"RC001"}
    [violation] = report.violations
    assert "RC999" in violation.message


def test_rc002_missing_reason_leaves_pragma_inert():
    report = lint_paths(FIXTURES / "pragma_noreason.py")
    # Both the hygiene finding AND the violation the pragma tried to hide.
    assert fired(report) == {"RC002", "RC101"}


def test_rc003_unused_pragma_strict_only():
    assert lint_paths(FIXTURES / "pragma_unused.py").ok
    report = lint_paths(FIXTURES / "pragma_unused.py", strict=True)
    assert fired(report) == {"RC003"}


def test_meta_findings_are_unsuppressible():
    report = lint_paths(FIXTURES / "pragma_meta.py")
    # disable-file=RC002 must not mute the RC002 on the reasonless pragma.
    assert "RC002" in fired(report)
    assert "RC101" in fired(report)


# ----------------------------------------------------------------------
# RC1xx — determinism
# ----------------------------------------------------------------------
def test_rc101_wall_clock():
    report = lint_paths(FIXTURES / "rc101_wall_clock.py")
    assert fired(report) == {"RC101"}
    assert count(report, "RC101") == 3  # time.time, perf_counter, datetime.now


def test_rc101_allowed_in_perf_module():
    report = lint_paths(FIXTURES / "perf_allowed", strict=True)
    assert report.ok, format_human(report)


def test_rc101_allowlist_names_only_existing_modules():
    # A module cut from src/ takes its wall-clock exemption with it.
    from repro.lint.rules import _CLOCK_ALLOWED_MODULES

    missing = [m for m in _CLOCK_ALLOWED_MODULES if not (ROOT / "src" / m).is_file()]
    assert missing == []


def test_rc102_ambient_entropy():
    report = lint_paths(FIXTURES / "rc102_entropy.py")
    assert fired(report) == {"RC102"}
    assert count(report, "RC102") == 3  # urandom, uuid4, token_hex; uuid5 ok


def test_rc103_global_rng():
    report = lint_paths(FIXTURES / "rc103_global_random.py")
    assert fired(report) == {"RC103"}
    assert count(report, "RC103") == 2  # from-import randint + random.random()


def test_rc104_unseeded_random():
    report = lint_paths(FIXTURES / "rc104_unseeded.py")
    assert fired(report) == {"RC104"}
    assert count(report, "RC104") == 1  # seeded constructions are fine


def test_rc105_set_iteration():
    report = lint_paths(FIXTURES / "rc105_set_iteration.py")
    assert fired(report) == {"RC105"}
    assert count(report, "RC105") == 3  # for-loop, comprehension, list(...)


# ----------------------------------------------------------------------
# RC2xx — protocol invariants
# ----------------------------------------------------------------------
def test_rc201_unhandled_session_message():
    report = lint_paths(FIXTURES / "dispatch_bad")
    assert fired(report) == {"RC201"}
    [violation] = report.violations
    assert "Orphan" in violation.message
    assert violation.file.endswith("messages.py")


def test_rc201_exhaustive_dispatch_is_clean():
    report = lint_paths(FIXTURES / "dispatch_good", strict=True)
    assert report.ok, format_human(report)


def test_rc201_real_registry_is_exhaustive():
    # Every @session_message class in the actual tree has a _receive arm.
    project = build_project([str(ROOT / "src")], excludes=DEFAULT_EXCLUDES)
    report = run(project, select=frozenset({"RC201"}))
    assert report.ok, format_human(report)


def test_rc202_heapq_containment():
    report = lint_paths(FIXTURES / "rc202_heapq.py")
    assert fired(report) == {"RC202"}


def test_rc203_socket_containment():
    report = lint_paths(FIXTURES / "rc203_socket.py")
    assert fired(report) == {"RC203"}


def test_rc202_rc203_allowed_in_owning_layers():
    report = lint_paths(FIXTURES / "contained", strict=True)
    assert report.ok, format_human(report)


def test_rc204_loop_internals():
    report = lint_paths(FIXTURES / "rc204_loop_internals.py")
    assert fired(report) == {"RC204"}
    assert count(report, "RC204") == 3  # ._heap access + two <loop>.now writes


def test_rc205_unpruned_buffer():
    report = lint_paths(FIXTURES / "rc205")
    assert fired(report) == {"RC205"}
    # bad_buffer's log + acks fire; good_buffer's four prune shapes
    # (del slice, deque(maxlen=...), .pop(), reassignment) stay clean.
    assert count(report, "RC205") == 2
    assert all("LeakyReplica" in v.message for v in report.violations)


def test_rc205_only_applies_to_data_and_transport(tmp_path):
    # The same source outside repro/data//transport must not be flagged.
    source = (
        FIXTURES / "rc205" / "repro" / "data" / "bad_buffer.py"
    ).read_text()
    target = tmp_path / "coldpath.py"
    target.write_text(source, encoding="utf-8")
    report = lint_paths(target)
    assert report.ok, format_human(report)


# ----------------------------------------------------------------------
# RC3xx — hot-path hygiene
# ----------------------------------------------------------------------
def test_rc301_rc302_hot_path():
    report = lint_paths(FIXTURES / "hotpath")
    assert fired(report) == {"RC301", "RC302"}
    assert count(report, "RC301") == 1  # BadPacket only; slots/Protocol ok
    assert count(report, "RC302") == 1
    [rc301] = [v for v in report.violations if v.rule == "RC301"]
    assert "BadPacket" in rc301.message


def test_rc301_rc302_only_apply_to_hot_modules(tmp_path):
    # Same source under a non-hot-path name must not be flagged.
    source = (FIXTURES / "hotpath" / "repro" / "core" / "token.py").read_text()
    target = tmp_path / "coldpath.py"
    target.write_text(source, encoding="utf-8")
    report = lint_paths(target)
    assert report.ok, format_human(report)


# ----------------------------------------------------------------------
# RC4xx — observability
# ----------------------------------------------------------------------
def test_rc401_eager_probe_formatting():
    report = lint_paths(FIXTURES / "rc401_eager_probe.py")
    assert fired(report) == {"RC401"}
    # f-string, %-format, .format() on probe.emit + f-string kwarg on a
    # *_bus receiver; raw-args emit and non-probe receivers stay clean.
    assert count(report, "RC401") == 4


def test_rc402_probe_event_outside_bus():
    report = lint_paths(FIXTURES / "rc402_probe_event.py")
    assert fired(report) == {"RC402"}
    assert count(report, "RC402") == 2  # hand-built ProbeEvent + at= kwarg


def test_rc402_allowed_inside_repro_obs():
    report = lint_paths(FIXTURES / "obs_allowed", strict=True)
    assert report.ok, format_human(report)


def test_rc403_impure_contract_rule():
    report = lint_paths(FIXTURES / "rc403_impure_rule.py")
    # The wall-clock reads also (correctly) trip RC101; RC403 adds the
    # rule-purity findings on top.
    assert fired(report) == {"RC101", "RC403"}
    # 2 wall-clock calls + global + attribute write + ambient .now read;
    # local/subscript mutation and the undecorated helper stay clean.
    assert count(report, "RC403") == 5


def test_rc403_pure_rule_is_clean_even_strict():
    report = lint_paths(FIXTURES / "rc403_pure_rule.py", strict=True)
    assert report.ok, format_human(report)


def test_rc403_reads_must_be_declared():
    report = lint_paths(FIXTURES / "rc403_undeclared_read.py")
    assert fired(report) == {"RC403"}
    # The undeclared w.kinds("fd.fire") and the rule with no reads=(...);
    # the declared w.kinds("fd.arm") stays clean.
    assert count(report, "RC403") == 2


def test_rc403_builtin_monitor_rules_self_host():
    # The shipped paper-contract rules must satisfy their own purity bar.
    report = lint_paths(
        ROOT / "src" / "repro" / "obs" / "monitor.py",
        select=frozenset({"RC403"}),
    )
    assert report.ok, format_human(report)


# ----------------------------------------------------------------------
# pragma mechanics
# ----------------------------------------------------------------------
def test_pragma_same_line_suppression():
    report = lint_paths(FIXTURES / "pragma_ok.py", strict=True)
    assert report.ok, format_human(report)


def test_pragma_file_scope_suppression():
    report = lint_paths(FIXTURES / "pragma_file_scope.py", strict=True)
    assert report.ok, format_human(report)


def test_select_limits_rule_families():
    path = FIXTURES / "rc101_wall_clock.py"
    assert count(lint_paths(path, select=frozenset({"RC101"})), "RC101") == 3
    assert lint_paths(path, select=frozenset({"RC102"})).ok


def test_every_repo_pragma_is_load_bearing(tmp_path):
    """Deleting any suppression pragma in the real tree must make the
    suppressed rule fire again — the acceptance bar for pragma hygiene."""
    project = build_project(
        [str(ROOT / "src"), str(ROOT / "tests")], excludes=DEFAULT_EXCLUDES
    )
    checked = 0
    for ctx in project.files:
        for pragma in ctx.pragmas:
            lines = ctx.source.splitlines()
            idx = pragma.line - 1
            lines[idx] = re.sub(r"#\s*raincheck\s*:.*$", "", lines[idx])
            target = tmp_path / f"stripped_{checked}_{Path(ctx.path).name}"
            target.write_text("\n".join(lines) + "\n", encoding="utf-8")
            report = lint_paths(target)
            refired = set(pragma.rules) & fired(report)
            assert refired, (
                f"removing the pragma at {ctx.path}:{pragma.line} "
                f"({pragma.rules}) surfaced nothing — stale suppression?"
            )
            checked += 1
    assert checked >= 1  # the tree is expected to carry justified pragmas


# ----------------------------------------------------------------------
# output formats
# ----------------------------------------------------------------------
def test_json_output_is_stable_and_sorted():
    first = format_json(lint_paths(FIXTURES))
    second = format_json(lint_paths(FIXTURES))
    assert first == second  # byte-identical across runs
    payload = json.loads(first)
    assert payload["version"] == 1
    assert payload["files_checked"] >= 1
    keys = [
        (v["file"], v["line"], v["col"], v["rule"], v["message"])
        for v in payload["violations"]
    ]
    assert keys == sorted(keys)
    assert set(payload) == {"version", "files_checked", "violations"}
    for violation in payload["violations"]:
        assert set(violation) == {"file", "line", "col", "rule", "message"}


def test_human_output_renders_locations():
    report = lint_paths(FIXTURES / "rc202_heapq.py")
    text = format_human(report)
    assert re.search(r"rc202_heapq\.py:\d+:\d+: RC202 ", text)
    assert "violation(s)" in text


# ----------------------------------------------------------------------
# CLI (python -m repro lint)
# ----------------------------------------------------------------------
def test_cli_clean_exits_zero(capsys):
    assert main(["lint", str(FIXTURES / "clean.py")]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_violations_exit_one(capsys):
    assert main(["lint", str(FIXTURES / "rc101_wall_clock.py")]) == 1
    assert "RC101" in capsys.readouterr().out


def test_cli_json_mode(capsys):
    assert main(["lint", "--json", str(FIXTURES / "rc101_wall_clock.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [v["rule"] for v in payload["violations"]] == ["RC101"] * 3


def test_cli_unknown_select_exits_two(capsys):
    assert main(["lint", "--select", "RC999", str(FIXTURES / "clean.py")]) == 2
    assert "RC999" in capsys.readouterr().out


def test_cli_missing_path_exits_two(capsys):
    assert main(["lint", str(FIXTURES / "no_such_dir")]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


# ----------------------------------------------------------------------
# self-hosting: the repo must pass its own linter in CI mode
# ----------------------------------------------------------------------
def test_self_host_repo_is_clean_under_strict():
    project = build_project(
        [str(ROOT / "src"), str(ROOT / "tests")], excludes=DEFAULT_EXCLUDES
    )
    report = run(project, strict=True)
    assert report.ok, format_human(report)
    assert report.files_checked > 100  # the whole tree, not a subset
