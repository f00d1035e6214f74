import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sqmzoo import verify
from sqmzoo.cli import main, run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
ALL_SCENARIOS = sorted(SCENARIOS.glob("*.yaml"))


def test_scenarios_exist_one_per_constructor():
    assert len(ALL_SCENARIOS) >= 15


@pytest.mark.parametrize("path", ALL_SCENARIOS, ids=lambda p: p.stem)
def test_every_shipped_scenario_passes(path, tmp_path):
    code, text = run_scenario(str(path), report_path=str(tmp_path / "r.txt"))
    assert code == 0, text
    assert (tmp_path / "r.txt").read_text() == text
    # byte identity with the committed report: same labels, verdicts,
    # residual digits, tolerances and argmax points
    assert text == (GOLDEN / f"{path.stem}.txt").read_text(encoding="utf-8")


def test_report_bytes_reproducible(tmp_path):
    src = SCENARIOS / "witten.yaml"
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(["run", str(src), "--report", str(out1)]) == 0
    assert main(["run", str(src), "--report", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "c.txt"
    assert main(["run", str(src), "--seed", "99", "--report", str(out3)]) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_list_models(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "witten" in out
    assert "hyperkahler" in out
    assert len([ln for ln in out.splitlines() if ln.strip()]) >= 12


def test_show_op_witten(capsys):
    assert main(["show-op", str(SCENARIOS / "witten.yaml"), "Q"]) == 0
    out = capsys.readouterr().out
    assert "psi" in out and "d_x" in out and "W" in out


def test_show_op_free_structure(capsys):
    assert main(["show-op", str(SCENARIOS / "free_complex.yaml"), "Q"]) == 0
    out = capsys.readouterr().out
    assert "psi1" in out and "psi2" in out
    assert "d_x1" in out and "d_y1" in out


def test_show_op_qcov_phase(capsys):
    assert main(["show-op", str(SCENARIOS / "gauge_sym3_resolved.yaml"),
                 "Qcov"]) == 0
    out = capsys.readouterr().out
    assert "exp" in out and "alpha" in out


def test_show_op_unknown_name(capsys):
    assert main(["show-op", str(SCENARIOS / "witten.yaml"), "nope"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_constructor(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: bad\nmodel: {constructor: nonsense}\n")
    assert main(["run", str(bad)]) == 2
    assert "unknown constructor" in capsys.readouterr().err


def test_unknown_scenario_key(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: bad\nmodel: {constructor: witten}\nbogus: 1\n")
    assert main(["run", str(bad)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_yaml_syntax_error_has_position(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [unclosed\nmodel:\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_yaml_syntax_error_quotes_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [unclosed\nmodel:\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "name: [unclosed" in err and "^" in err


def test_fast_yaml_parser_builds_the_same_documents():
    import yaml
    from sqmzoo.cli import _parse_yaml
    for path in ALL_SCENARIOS:
        text = path.read_text(encoding="utf-8")
        assert _parse_yaml(text) == yaml.safe_load(text), path.name


def test_expected_violation_scenario_exits_zero(tmp_path):
    # a broken-metric scenario with expectation "any" confirms the violation
    code, text = run_scenario(str(SCENARIOS / "kahler_broken.yaml"))
    assert code == 0
    assert "violated-as-expected" in text


def test_failing_expectation_nonzero_exit(tmp_path):
    bad = tmp_path / "fail.yaml"
    bad.write_text(
        "name: should-fail\n"
        "model:\n"
        "  constructor: kahler_warped\n"
        "  params: {u: \"0.3*sin(x1) + 0.2*x3^2\"}\n"
        "checks: [extended]\n"
        "seed: 3\npoints: 6\n")
    code, text = run_scenario(str(bad))
    assert code == 1
    assert "verdict: fail" in text


def _scenario(tmp_path, model, checks, extra=""):
    path = tmp_path / "s.yaml"
    path.write_text(f"name: t\nmodel: {model}\nchecks: {checks}\n"
                    f"seed: 3\npoints: 3\n{extra}")
    return str(path)


WITTEN = "{constructor: witten}"
FREE_COMPLEX = "{constructor: free_complex, params: {d: 2}}"


@pytest.mark.parametrize("model, checks, message", [
    (FREE_COMPLEX, "[{name: n2, typo_key: 1, expect: passs}]", "expect"),
    (FREE_COMPLEX, "[{name: n2, typo_key: 1}]", "typo_key"),
    (FREE_COMPLEX, "[{name: extended, expect: passs}]", "expect"),
    (WITTEN, "[{name: equal, a: Q}]", "'b'"),
    (WITTEN, "[{name: equal, a: Q, b: Qnope}]", "Qnope"),
    (WITTEN, "[nonsense]", "unknown check"),
    (WITTEN, "[{name: equal, a: Q, b: Q, tol: abc}]", "tol"),
    (WITTEN, "[{name: equal, a: Q, b: Q, tol: 0}]", "tol"),
    ("{constructor: witten, params: {W: \"x +\"}}", "[suite]",
     "unexpected token"),
    ("{constructor: torsion_rotate, params: {base: " + FREE_COMPLEX + "}}",
     "[n2]", "'B'"),
    (WITTEN, "[structure]",
     "check 'structure' on model witten: model witten has no complex "
     "structure"),
    (WITTEN, "5", "checks must be a list"),
    (WITTEN, "{name: suite}", "checks must be a list"),
    (WITTEN, "[7]", "check entry must be"),
    (WITTEN, "[{name: [suite]}]", "check entry must be"),
    # a list that names no check is no request for the default suite
    (WITTEN, "[]", "checks must be a list of at least one check, got []"),
], ids=["typo-and-bad-expect", "typo-key", "bad-expect", "missing-operand",
        "unknown-operator", "unknown-check", "non-numeric-tol", "zero-tol",
        "unparsable-model-param", "missing-model-param",
        "no-complex-structure", "checks-number", "checks-mapping",
        "check-entry-number", "check-name-not-string", "checks-empty"])
def test_bad_check_entry_is_scenario_error(tmp_path, capsys, model, checks,
                                           message):
    assert main(["run", _scenario(tmp_path, model, checks)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("model, messages", [
    ("{constructor: instanton, params: {rho: -1.0}}",
     ["instanton: instanton size must be positive"]),
    ("{constructor: dolbeault, params: {d: 2, omega: [[x1, \"0\"], [\"0\"]]}}",
     ["dolbeault: ragged grid"]),
    # a complex conformal factor makes the measure density complex, which
    # the positivity guard rejects while the suite is evaluated
    ("{constructor: hkt_conformal, params: {g: \"0.1*i*x1\"}}",
     ["check 'suite': relation '", "' at point (",
      "ValueError: measure density must be positive"]),
    ("{constructor: [witten]}", ["model needs a mapping with a 'constructor'"]),
    ("{constructor: witten, params: 5}", ["witten: params must be a mapping"]),
    ("{constructor: witten, params: [1]}", ["params must be a mapping"]),
    # a falsy params of the wrong type would otherwise run the default W
    ("{constructor: witten, params: false}",
     ["witten: params must be a mapping, got False"]),
    ("{constructor: witten, params: []}",
     ["witten: params must be a mapping, got []"]),
    ("{constructor: torsion_rotate, params: {base: witten}}",
     ["model needs a mapping with a 'constructor'"]),
    ("{constructor: torsion_rotate, params: {base: false}}",
     ["model needs a mapping with a 'constructor' name, got False"]),
    ("{constructor: torsion_rotate, params: {base: {params: {}}}}",
     ["model needs a mapping with a 'constructor'"]),
    # a misspelt params key would otherwise run the default W and pass
    ("{constructor: witten, parms: {W: \"x^4 - 3*x\"}}",
     ["witten: unknown model keys ['parms']"]),
    ("{constructor: torsion_rotate, params: {B: [[0, 1], [-1, 0]], "
     "kind: holomorphic, base: {constructor: free_complex, d: 2}}}",
     ["free_complex: unknown model keys ['d']"]),
], ids=["constructor-value-error", "ragged-grid", "evaluation-error",
        "constructor-not-string", "params-number", "params-list",
        "params-false", "params-empty-list", "base-not-mapping",
        "base-false", "base-without-constructor", "unknown-model-key",
        "unknown-base-key"])
def test_model_and_evaluation_errors_are_scenario_errors(tmp_path, capsys,
                                                         model, messages):
    assert main(["run", _scenario(tmp_path, model, "[suite]")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for message in messages:
        assert message in err
    # a failed guard's text ends at the value: the point is printed once,
    # by the "at point (...)" prefix, not again after the value
    assert " at (" not in err, err


def test_null_scalars_mean_their_defaults(tmp_path):
    """``seed``, ``points``, both tolerances, an exclusion's ``min`` and
    a check's ``tol`` set to null read as absent, as a null section does:
    the report is that of the scenario without them."""
    def run(name, body):
        path = tmp_path / name
        path.write_text(f"name: t\nmodel: {WITTEN}\n{body}")
        return run_scenario(str(path))

    nulls = run("nulls.yaml",
                "checks: [suite, {name: equal, a: Q, b: Q, tol: null}]\n"
                "seed: null\npoints: null\n"
                "tolerances: {pass: null, violation: null}\n"
                "exclusions: [{expr: x, min: null}]\n")
    plain = run("plain.yaml", "checks: [suite, {name: equal, a: Q, b: Q}]\n"
                "exclusions: [{expr: x}]\n")
    assert nulls == plain
    assert nulls[0] == 0 and "seed: 0 | points: 20" in nulls[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_residual_fails(tmp_path):
    # exp(800 x) overflows inside the box, so the sampled jets carry inf
    # and NaN; a dropped NaN or an infinite scale would pass all three
    code, text = run_scenario(_scenario(
        tmp_path, "{constructor: witten, params: {W: \"exp(800*x)\"}}",
        "[suite]"))
    assert code == 1
    lines = [ln for ln in text.splitlines() if ln.startswith("relation:")]
    assert len(lines) == 3
    for line in lines:
        fields = dict(part.split(": ", 1) for part in line.split(" | "))
        assert {fields["residual"], fields["scale"]} & {"nan", "inf"}, line
        assert fields["point"] != "()", line
        assert fields["verdict"] == "fail", line


def test_expect_applies_to_every_check(tmp_path):
    # n2 relations hold exactly on free flat dynamics, so asking for a
    # violation must fail the run instead of being dropped
    code, text = run_scenario(_scenario(
        tmp_path, FREE_COMPLEX, "[{name: n2, expect: violated}]"))
    assert code == 1
    assert text.count("verdict: fail") == 3


def test_expect_any_requires_a_violation(tmp_path):
    # the Kahler warped metric satisfies theorem 1, so a negative control
    # that finds no violation proves nothing and must fail
    code, text = run_scenario(_scenario(
        tmp_path, "{constructor: kahler_warped}",
        "[{name: theorem1, expect: any}]"))
    assert code == 1
    last = text.splitlines()[-2]
    assert last.startswith("relation: theorem1: no relation violated")
    assert "tol: 1.0e-03" in last and last.endswith("verdict: fail")


@pytest.mark.parametrize("extra, argv, message", [
    ("", ["--points", "0"], "points"),
    ("", ["--points", "-3"], "points"),
    ("box: {zz: [0, 1]}\n", [], "zz"),
    ("box: {x: [1, 1]}\n", [], "lo < hi"),
    ("box: {x: [1, -1]}\n", [], "lo < hi"),
    ("box: {x: 5}\n", [], "box x"),
    ("box: {x: [1]}\n", [], "box x"),
    ("box: {x: [-1, 1, 2]}\n", [], "box x"),
    ("box: {x: [a, 1]}\n", [], "box x"),
    ("box: {x: [-.inf, 1]}\n", [], "box x"),
    ("box: [-1, 1]\n", [], "box must map"),
    ("points: abc\n", [], "points"),
    ("points: 2.5\n", [], "points"),
    ("exclusions: [{expr: x, min: abc}]\n", [], "exclusion min"),
    ("exclusions: [{min: 0.1}]\n", [], "exclusion needs"),
    ("exclusions: [{expr: \"x +\"}]\n", [], "exclusion 'x +'"),
    ("exclusions: 5\n", [], "exclusions must be a list"),
    ("seed: abc\n", [], "seed"),
    ("seed: -1\n", [], "seed"),
    ("tolerances: {pass: abc}\n", [], "tolerances.pass"),
    ("tolerances: {violation: [1]}\n", [], "tolerances.violation"),
    ("tolerances: {pass: 1.0, violation: 1.0e-3}\n", [], "pass < violation"),
    ("tolerances: {pass: 0}\n", [], "pass < violation"),
    ("", ["--tol", "0.5"], "pass < violation"),
    ("", ["--tol=-1e-9"], "pass < violation"),
    ("points: yes\n", [], "points"),
    ("seed: true\n", [], "seed"),
    ("box: {x: [false, true]}\n", [], "box x"),
    # a falsy section of the wrong type is no request for the defaults
    ("tolerances: []\n", [], "tolerances must be a mapping, got []"),
    ("tolerances: false\n", [], "tolerances must be a mapping, got False"),
    ("box: []\n", [], "box must map coordinates to [lo, hi], got []"),
    ("box: 0\n", [], "box must map coordinates to [lo, hi], got 0"),
    ("exclusions: 0\n", [], "exclusions must be a list, got 0"),
    ("exclusions: {}\n", [], "exclusions must be a list, got {}"),
    # open(True) would write the report to file descriptor 1 and close it
    ("report: true\n", [], "report must be a path, got True"),
], ids=["points-0", "points-negative", "unknown-box-key", "empty-box",
        "reversed-box", "box-number", "box-one-number", "box-three-numbers",
        "box-not-numeric", "box-infinite", "box-not-mapping",
        "points-not-numeric", "points-fractional", "exclusion-min-not-numeric",
        "exclusion-without-expr", "exclusion-unparsable", "exclusions-not-list",
        "seed-not-numeric", "seed-negative",
        "pass-not-numeric", "violation-not-numeric", "pass-above-violation",
        "pass-zero", "tol-option-above-violation", "tol-option-negative",
        "points-boolean", "seed-boolean", "box-booleans",
        "tolerances-empty-list", "tolerances-false", "box-empty-list",
        "box-zero", "exclusions-zero", "exclusions-empty-mapping",
        "report-boolean"])
def test_vacuous_sample_is_scenario_error(tmp_path, capsys, extra, argv,
                                          message):
    path = _scenario(tmp_path, WITTEN, "[suite]", extra)
    assert main(["run", path, *argv]) == 2
    assert message in capsys.readouterr().err


def _one_error_line(capsys):
    """The one line, on stderr, that is all a scenario error prints."""
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, \
        err
    return err


@pytest.mark.parametrize("command", ["run", "show-op"])
def test_missing_scenario_file_is_scenario_error(tmp_path, capsys, command):
    path = tmp_path / "nonexistent.yaml"
    argv = [command, str(path)] + (["Q"] if command == "show-op" else [])
    assert main(argv) == 2
    assert f"{path}: cannot read scenario: No such file" in \
        _one_error_line(capsys)


def test_non_utf8_scenario_file_is_scenario_error(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("name: caf\u00e9\nmodel: {constructor: witten}\n"
                     .encode("latin-1"))
    assert main(["run", str(path)]) == 2
    assert f"{path}: cannot read scenario: 'utf-8' codec can't decode" in \
        _one_error_line(capsys)


@pytest.mark.parametrize("where", ["file", "option"])
def test_unwritable_report_is_scenario_error(tmp_path, capsys, where):
    out = tmp_path / "missing" / "r.txt"
    extra = f"report: {out}\n" if where == "file" else ""
    argv = [] if where == "file" else ["--report", str(out)]
    path = _scenario(tmp_path, WITTEN, "[suite]", extra)
    assert main(["run", path, *argv]) == 2
    assert f"{out}: cannot write report: No such file" in \
        _one_error_line(capsys)


def test_points_zero_in_file_is_scenario_error(tmp_path, capsys):
    path = tmp_path / "s.yaml"
    path.write_text("name: t\nmodel: {constructor: witten}\npoints: 0\n")
    assert main(["run", str(path)]) == 2
    assert "points" in capsys.readouterr().err


def test_docs_check_table_lists_every_check():
    text = (ROOT / "docs" / "scenarios.md").read_text(encoding="utf-8")
    listed = [line.split("`")[1] for line in text.splitlines()
              if line.startswith("| `")]
    assert listed == list(verify.CHECKS)


def test_module_runs_as_a_process():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "sqmzoo.cli", "list-models"],
                         capture_output=True, text=True, env=env, cwd=ROOT,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert "witten" in out.stdout


def test_console_script_entry_point():
    """The installed ``sqmzoo`` script lists the models; where the
    package is not installed, pyproject.toml maps ``sqmzoo`` to
    ``sqmzoo.cli:main`` and that target, run as the script would run it
    with the sources on the path, lists them."""
    exe = shutil.which("sqmzoo")
    if exe is not None:
        cmd, env = [exe, "list-models"], None
    else:
        # a regex, not tomllib, which needs Python 3.11
        text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        section = re.search(r"^\[project\.scripts\]\n((?:(?:[^\[\n].*)?\n)*)",
                            text, re.M)
        assert section is not None, "no [project.scripts] table"
        target = re.search(r'^sqmzoo\s*=\s*"([\w.]+):(\w+)"\s*$',
                           section.group(1), re.M)
        assert target is not None, "no sqmzoo script"
        module, func = target.groups()
        assert (module, func) == ("sqmzoo.cli", "main")
        code = f"import sys; from {module} import {func}; sys.exit({func}())"
        cmd = [sys.executable, "-c", code, "list-models"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                         cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "witten" in out.stdout
