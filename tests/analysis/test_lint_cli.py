"""The `repro lint` command line: exit codes, formats, filters."""

import io
import json
import textwrap

from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main


def run(argv, runner=lint_main):
    out = io.StringIO()
    code = runner(argv, out=out)
    return code, out.getvalue()


def write(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return str(path)


def test_clean_file_exits_zero(tmp_path):
    path = write(tmp_path, "X = 1\n")
    code, output = run([path])
    assert code == 0
    assert "clean: 1 file checked" in output


def test_findings_exit_one_with_location(tmp_path):
    path = write(tmp_path, "TOL = 1e-9\n")
    code, output = run([path])
    assert code == 1
    assert f"{path}:1:" in output
    assert "RPR001" in output


def test_json_format(tmp_path):
    path = write(tmp_path, "assert True\n")
    code, output = run([path, "--format", "json"])
    assert code == 1
    payload = json.loads(output)
    assert payload["checked_files"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["RPR002"]
    assert {r["code"] for r in payload["rules"]} >= {"RPR001", "RPR005"}


def test_sarif_format(tmp_path):
    path = write(tmp_path, "assert True\n")
    code, output = run([path, "--format", "sarif"])
    assert code == 1
    payload = json.loads(output)
    assert payload["version"] == "2.1.0"
    run_record = payload["runs"][0]
    assert run_record["tool"]["driver"]["name"] == "repro-lint"
    assert run_record["properties"]["checkedFiles"] == 1
    rule_ids = {rule["id"] for rule in run_record["tool"]["driver"]["rules"]}
    assert rule_ids >= {"RPR001", "RPR008", "RPR010", "RPR011"}
    (result,) = run_record["results"]
    assert result["ruleId"] == "RPR002"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == path
    assert location["region"]["startLine"] == 1


def test_sarif_clean_run_exits_zero_with_empty_results(tmp_path):
    path = write(tmp_path, "X = 1\n")
    code, output = run([path, "--format", "sarif"])
    assert code == 0
    payload = json.loads(output)
    assert payload["runs"][0]["results"] == []


def test_sarif_output_is_deterministic(tmp_path):
    path = write(tmp_path, "TOL = 1e-9\nassert True\n")
    first = run([path, "--format", "sarif"])
    second = run([path, "--format", "sarif"])
    assert first == second


def test_human_and_json_formats_unchanged_by_sarif_support(tmp_path):
    path = write(tmp_path, "TOL = 1e-9\n")
    __, human = run([path, "--format", "human"])
    assert f"{path}:1:" in human and "finding(s)" in human
    __, as_json = run([path, "--format", "json"])
    payload = json.loads(as_json)
    assert set(payload) == {"checked_files", "findings", "rules"}
    assert payload["findings"][0]["rule"] == "RPR001"


def test_select_limits_rules(tmp_path):
    path = write(tmp_path, "TOL = 1e-9\nassert True\n")
    code, output = run([path, "--select", "RPR002"])
    assert code == 1
    assert "RPR002" in output and "RPR001" not in output


def test_ignore_skips_rules(tmp_path):
    path = write(tmp_path, "TOL = 1e-9\n")
    code, output = run([path, "--ignore", "RPR001"])
    assert code == 0


def test_unknown_rule_code_is_a_usage_error(tmp_path):
    path = write(tmp_path, "X = 1\n")
    code, __ = run([path, "--select", "RPR999"])
    assert code == 2


def test_missing_target_is_a_usage_error(tmp_path):
    code, __ = run([str(tmp_path / "nope.py")])
    assert code == 2


def test_list_rules():
    code, output = run(["--list-rules"])
    assert code == 0
    for expected in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005"):
        assert expected in output


def test_directory_target_recurses(tmp_path):
    (tmp_path / "pkg").mkdir()
    write(tmp_path, "TOL = 1e-9\n", name="pkg/inner.py")
    code, output = run([str(tmp_path / "pkg")])
    assert code == 1
    assert "RPR001" in output


def test_repro_cli_lint_subcommand(tmp_path):
    path = write(tmp_path, "TOL = 1e-9  # repro: noqa[RPR001]\n")
    code, output = run(["lint", path], runner=repro_main)
    assert code == 0
    assert "clean" in output

    code, output = run(["lint", "--list-rules"], runner=repro_main)
    assert code == 0
    assert "RPR003" in output
