import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys

import pytest

from folclass import cli, errors
from folclass.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_match_output(capsys):
    code, out, _err = run_cli(
        ["classify", "--field", "GF(4)", "--case", "II",
         "--a", "1", "--b", "t", "--c", "t^2+t", "--no-timing"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matches"] == [
        {"family": "II-i", "params": {"t1": "0", "t2": "1"}, "lambda": "1"}
    ]
    assert payload["manifest"]["tool"] == "folclass"
    assert "timing" not in payload


def test_classify_rejects_c2_violation(capsys):
    code, _out, err = run_cli(
        ["classify", "--field", "GF(4)", "--case", "II",
         "--a", "1", "--b", "t", "--c", "t^4"],
        capsys,
    )
    assert code == 1
    assert "C2" in err


def test_classify_bad_literal_names_position(capsys):
    code, _out, err = run_cli(
        ["classify", "--field", "GF(4)", "--case", "II",
         "--a", "t^", "--b", "t", "--c", "0"],
        capsys,
    )
    assert code == 1
    assert "position" in err


def test_classify_huge_exponent_exits_one(capsys):
    # rejected while parsing, before any coefficient is allocated
    code, out, err = run_cli(
        ["classify", "--field", "GF(4)", "--case", "II",
         "--a", "1", "--b", "t", "--c", "t^99999999"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "exponent above" in err and "position 2" in err


@pytest.mark.parametrize("argv, reason", [
    (["classify", "--field", "GF(4)", "--case", "II", "--a", "1", "--b", "t", "--c", "t^" + "9" * 5000],
     "exponent above 1024 at position 2"),
    (["fields", "--field", "GF(8;mod=x" + "9" * 5000 + "+x+1)"], "exponent above 3 at position 10"),
    (["fields", "--field", "GF(" + "9" * 5000 + ")"], "number longer than 4300 digits at position 3"),
], ids=["t-exponent", "x-exponent", "field-order"])
def test_long_digit_run_exits_one(argv, reason, capsys):
    # refused at the digits' position, an exponent as above its bound without
    # reading its digits; int() would refuse without a position
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert reason in err


def test_fields_huge_modulus_exponent_exits_one(capsys):
    # refused while scanning the modulus, before one coefficient per degree
    # is allocated, at its position in the field literal
    code, out, err = run_cli(["fields", "--field", "GF(8;mod=x999999999+x+1)"], capsys)
    assert code == 1
    assert out == ""
    assert "exponent above 3 at position 10" in err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorem", "--field", "GF(4)", "--bogus-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_verify_theorem_summary(capsys):
    code, out, _err = run_cli(
        ["verify-theorem", "--field", "GF(2)", "--no-timing"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["findings"] == 0
    cases = {r["case"]: r for r in payload["results"]}
    assert set(cases) == {"I", "II", "III", "IV"}
    assert cases["I"]["corollaries"]["all_valid_have_c_zero"] is True
    assert cases["II"]["corollaries"]["all_valid_have_c_nonzero"] is True
    for r in payload["results"]:
        assert r["completeness"]["unmatched"] == []
        assert r["soundness"]["passed"] is True


def test_byte_identical_reports_across_jobs(monkeypatch, tmp_path, capsys):
    # every output of the pooled commands is the same at every --jobs: the
    # exit code, stdout, stderr, the JSON or CSV summary and the detail file
    monkeypatch.chdir(tmp_path)
    for command in ("verify-theorem", "enumerate"):
        runs = set()
        for jobs in ("1", "2", "3"):
            base = [command, "--field", "GF(4)", "--jobs", jobs, "--no-timing", "--detail", "D.jsonl"]
            code, out, err = run_cli(base, capsys)
            detail = (tmp_path / "D.jsonl").read_bytes()
            csv_code, csv_out, csv_err = run_cli([*base, "--format", "csv", "--out", "S.csv"], capsys)
            runs.add((code, out, err, detail, csv_code, csv_out, csv_err,
                      (tmp_path / "D.jsonl").read_bytes(), (tmp_path / "S.csv").read_bytes()))
        assert len(runs) == 1
        ((code, out, _err, detail, csv_code, csv_out, *_rest),) = runs
        assert code == csv_code == 0 and csv_out == ""
        assert [r["case"] for r in json.loads(out)["results"]] == ["I", "II", "III", "IV"]
        assert len(detail.splitlines()) == 4 * (1 + 60)  # a manifest line and |PGL2(4)| classes per case
    assert not list(tmp_path.glob("*.tmp"))


def test_pool_capped_at_task_count(monkeypatch, capsys):
    # a fake pool records its size and maps serially, so no worker starts
    import multiprocessing

    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    for argv, tasks in (
        (["verify-theorem", "--field", "GF(2)"], 8),  # soundness and completeness of 4 cases
        (["enumerate", "--field", "GF(2)", "--case", "I,III"], 2),
    ):
        serial = run_cli([*argv, "--no-timing"], capsys)
        assert sizes == []
        assert run_cli([*argv, "--no-timing", "--jobs", "1000000"], capsys) == serial
        assert sizes == [tasks]
        sizes.clear()
    # one task needs no pool
    run_cli(["enumerate", "--field", "GF(2)", "--case", "II", "--jobs", "2"], capsys)
    assert sizes == []


def _all_subclasses(cls):
    return {cls}.union(*(_all_subclasses(sub) for sub in cls.__subclasses__()))


def test_errors_survive_pickle():
    # a worker's error reaches the parent pickled; one that cannot be rebuilt
    # there leaves the pool waiting for a result forever
    samples = [
        errors.FolclassError("cannot write report"),
        errors.FieldMismatchError("operands over GF(2) and GF(4)"),
        errors.EmbeddingError("GF(4) does not embed in GF(8)"),
        errors.ParseError("expected a coefficient or t", "t + ?", 4),
        errors.InvalidParameterError("IV-iv", "s1 != 0"),
        errors.NotAFoliationError("C1 fails"),
        errors.ConsistencyError("scalar orbits do not partition the valid set"),
    ]
    assert {type(e) for e in samples} == _all_subclasses(errors.FolclassError)
    for exc in samples:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc) and back.args == exc.args
        assert vars(back) == vars(exc)


# Runs the CLI with one stage patched to raise; the patch sits at module level
# so that a worker started by any method applies it too.
_FAILING_STAGE = """
import sys
from folclass import cli, enumerator
from folclass.errors import ConsistencyError, InvalidParameterError


def fail(*_args):
    raise {error}


{target} = fail

if __name__ == "__main__":
    sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("target, error, message", [
    ("enumerator._scalar_classes", 'ConsistencyError("scalar orbits do not partition")',
     "error: scalar orbits do not partition"),
    ("cli.verify_soundness", 'InvalidParameterError("IV-iv", "s1 != 0")',
     "error: invalid parameters for family IV-iv: s1 != 0"),
], ids=["ConsistencyError", "InvalidParameterError"])
def test_worker_error_exits_one(target, error, message, tmp_path):
    # in a child process with a timeout, so that a parent waiting forever
    # on a lost error fails the test instead of hanging the suite
    script = tmp_path / "failing_stage.py"
    script.write_text(_FAILING_STAGE.format(target=target, error=error))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, str(script), "verify-theorem", "--field", "GF(2)", "--jobs", "2"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the parent hung on an error raised in a worker")
    assert proc.returncode == 1
    assert out == ""
    assert err.strip() == message


# stdout and D.jsonl digests by field literal; GF(8;mod=x3+x+1) names the
# canonical modulus, so it is GF(8) itself and reports the same bytes
GF8_DIGESTS = (
    "92acfbd5a9b46fd5391a121460daa8fdd00b5ddae2e2b84315a5bec374ea2247",
    "b5fdc203c5436f236f564dd0e5f421af5a1745f8c437605041634bb4aba693f3",
)
PINNED_DIGESTS = {
    "GF(8)": GF8_DIGESTS,
    "GF(8;mod=x3+x+1)": GF8_DIGESTS,
    "GF(8;mod=x3+x2+1)": (
        "0498deddf87a57c9fc1588c5bd5a7810a002ce36659cefb91ddd200463f7d3eb",
        "8d9d575f11a3df22aa88902db9d3267580b1341f9e7c980f7d923fa3a0b57770",
    ),
}


@pytest.mark.parametrize("field", PINNED_DIGESTS)
def test_verify_theorem_reports_pinned_by_digest(field, monkeypatch, tmp_path, capsys):
    # "the same results" means byte-identical --no-timing reports; a change
    # that alters the report on purpose updates these digests
    monkeypatch.chdir(tmp_path)
    code, out, _err = run_cli(
        ["verify-theorem", "--field", field, "--no-timing", "--detail", "D.jsonl"], capsys
    )
    assert code == 0
    stdout_digest, detail_digest = PINNED_DIGESTS[field]
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256((tmp_path / "D.jsonl").read_bytes()).hexdigest() == detail_digest


def test_detail_lines_only_with_detail(monkeypatch, capsys):
    # the per-class JSON lines are built only when --detail asks for them
    def refuse(*_args):
        raise AssertionError("detail lines built without --detail")

    monkeypatch.setattr(cli, "_detail_lines", refuse)
    code, out, _err = run_cli(["enumerate", "--field", "GF(4)", "--no-timing"], capsys)
    assert code == 0
    assert json.loads(out)["findings"] == 0


def test_repeated_runs_identical(tmp_path):
    out = tmp_path / "report.json"
    outs = []
    for _ in range(2):
        main(["enumerate", "--field", "GF(2)", "--case", "I", "--no-timing", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_csv_summary(tmp_path):
    out = tmp_path / "summary.csv"
    code = main(
        ["verify-theorem", "--field", "GF(2)", "--format", "csv",
         "--no-timing", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["field", "case", "total_triples", "valid_count", "scalar_classes", "matched"]
    assert "version" in header and "runtime_seconds" in header
    assert len(lines) == 5  # header + one row per case
    assert lines[1].startswith("GF(2),I,255,6,6,6,0,")


def test_detail_jsonl(tmp_path):
    detail = tmp_path / "detail.jsonl"
    main(
        ["verify-theorem", "--field", "GF(2)", "--case", "III",
         "--no-timing", "--detail", str(detail), "--out", str(tmp_path / "s.json")]
    )
    lines = detail.read_text().strip().splitlines()
    head = json.loads(lines[0])["manifest"]
    assert head["field"] == "GF(2)" and head["case"] == "III" and head["version"]
    assert "runtime_seconds" not in head  # suppressed by --no-timing
    assert len(lines) == 1 + 6  # manifest line plus one line per scalar class
    for line in lines[1:]:
        rec = json.loads(line)
        assert rec["triple"]["case"] == "III"
        assert rec["matches"]


def test_enumerate_includes_timing_by_default(capsys):
    code, out, _err = run_cli(["enumerate", "--field", "GF(2)", "--case", "IV"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "timing" in payload
    assert payload["timing"]["jobs"] == 1
    assert "runtime_seconds" in payload["results"][0]


def test_case_comma_list(capsys):
    code, out, _err = run_cli(
        ["verify-theorem", "--field", "GF(2)", "--case", "I,III", "--no-timing"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["case"] for r in payload["results"]] == ["I", "III"]
    assert payload["manifest"]["cases"] == ["I", "III"]


@pytest.mark.parametrize("case", [" all ", "ALL"])
def test_case_all_spelled_loosely(case, capsys):
    # spaces and letter case are ignored in "all" as in a case name
    code, out, _err = run_cli(["enumerate", "--field", "GF(2)", "--case", case, "--no-timing"], capsys)
    assert code == 0
    assert json.loads(out)["manifest"]["cases"] == ["I", "II", "III", "IV"]


@pytest.mark.parametrize("case", ["I,I", "i, I"])
def test_case_named_twice_exits_one(case, capsys):
    # a repeated case would report every one of its classes twice
    code, out, err = run_cli(["enumerate", "--field", "GF(2)", "--case", case, "--no-timing"], capsys)
    assert code == 1
    assert out == ""
    assert f"Lie case I is named twice in --case {case!r}" in err


def test_detail_and_out_naming_one_file_exits_one(monkeypatch, tmp_path, capsys):
    # refused before any work, so the summary cannot overwrite the detail
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        ["enumerate", "--field", "GF(2)", "--case", "I", "--detail", "same.json", "--out", "./same.json"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "--detail and --out name the same file './same.json'" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_families_command(capsys):
    code, out, _err = run_cli(
        ["verify-families", "--field", "GF(4)", "--case", "III", "--no-timing"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["findings"] == 0
    assert payload["results"][0]["instances"] == {"III-i": 12, "III-ii": 12, "III-iii": 36}


def test_fields_command(capsys):
    code, out, _err = run_cli(["fields", "--field", "GF(8)", "--tables"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["field"]["modulus"] == "x3+x+1"
    assert payload["field"]["order"] == 8
    assert len(payload["field"]["elements"]) == 8
    assert len(payload["field"]["mul_table"]) == 8


def test_cartier_command_symbolic(capsys):
    code, out, _err = run_cli(["cartier", "--no-timing"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["manifest"]["p"] == 2 and payload["manifest"]["e_max"] == 4
    assert all(r["nonzero"] and r["numerator_squared_equals_G"] for r in payload["results"])


def test_cartier_command_concrete_and_p3(capsys):
    code, out, _err = run_cli(["cartier", "--G", "u,u+1@GF(4)", "--no-timing"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert all(r["nonzero"] for r in payload["results"])

    code, out, _err = run_cli(["cartier", "--G", "1,1@GF(3)", "--no-timing"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["manifest"]["p"] == 3 and payload["manifest"]["e_max"] == 3
    assert all(r["image"] == "(1)/G dx^dy" for r in payload["results"])


@pytest.mark.parametrize("literal", ["0,0@GF(4)", "0,0@GF(3)"])
def test_cartier_s_t_zero_exits_one(literal, capsys):
    # G = 1 is not a conic: refused with a named reason, not a vacuous pass
    code, out, err = run_cli(["cartier", "--G", literal, "--no-timing"], capsys)
    assert code == 1
    assert out == ""
    assert "s = t = 0 gives G = 1, which is not a conic" in err


@pytest.mark.parametrize("literal", ["1,0@GF(3)", "0,1@GF(4)"])
def test_cartier_one_zero_coefficient_still_runs(literal, capsys):
    code, out, _err = run_cli(["cartier", "--G", literal, "--no-timing"], capsys)
    assert code == 0
    assert all(r["nonzero"] for r in json.loads(out)["results"])


def test_exit_code_two_on_soundness_findings(monkeypatch, capsys):
    # a counterexample is a finding, not a crash: exit code 2
    import folclass.cli as cli_mod

    class FakeReport:
        failures = [{"family": "II-i", "params": {}, "triple": {}}]
        instances = {}

        def to_json_dict(self):
            return {"field": "GF(2)", "case": "I", "instances": {},
                    "failures": self.failures, "passed": False}

    monkeypatch.setattr(cli_mod, "verify_soundness", lambda spec, case: FakeReport())
    code, out, _err = run_cli(
        ["verify-families", "--field", "GF(2)", "--case", "I", "--no-timing"], capsys
    )
    assert code == 2
    assert json.loads(out)["findings"] == 1


def test_exit_code_two_on_vanishing_trace(monkeypatch, capsys):
    from folclass.cartier import TopForm, TraceOperator
    from folclass.polynomial import BiPoly

    def fake_verify(self, e):
        return False, TopForm(BiPoly({}), 1, self.quadric)

    monkeypatch.setattr(TraceOperator, "verify_nonvanishing", fake_verify)
    code, out, _err = run_cli(["cartier", "--e-max", "2", "--no-timing"], capsys)
    assert code == 2
    assert json.loads(out)["findings"] == 2


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_jobs_below_one_exits_one(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--field", "GF(2)", "--jobs", jobs])
    assert exc.value.code == 1
    assert "--jobs: expected an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--field", "GF(2)", "--jobs", "9" * 5000],
    ["cartier", "--e-max", "9" * 5000],
], ids=["jobs", "e-max"])
def test_count_longer_than_int_reads_exits_one(argv, capsys):
    # refused by its length on every Python version, without echoing it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"{argv[-2]}: number longer than 4300 digits" in err
    assert "9" * 50 not in err


@pytest.mark.parametrize("e_max", ["0", "-1"])
def test_cartier_e_max_below_one_exits_one(e_max, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cartier", "--e-max", e_max])
    assert exc.value.code == 1
    assert "--e-max: expected an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cartier", "--e-max", "11"],
    ["cartier", "--G", "1,1@GF(3)", "--e-max", "7"],
])
def test_cartier_e_max_above_exponent_bound_exits_one(argv, monkeypatch, capsys):
    # refused before the first trace: G^(p^e - 1) would pass parse_poly's exponent bound
    from folclass.cartier import TraceOperator

    def no_trace(self, e):
        raise AssertionError("a trace ran before the --e-max bound was checked")

    monkeypatch.setattr(TraceOperator, "verify_nonvanishing", no_trace)
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "above the exponent bound 1024" in err


@pytest.mark.parametrize("argv, reason", [
    (["classify", "--field", "GF(2)", "--case", "I", "--a", "u", "--b", "t", "--c", "0"],
     "prime field GF(2) at position 0: 'u'"),
    (["classify", "--field", "GF(2)", "--case", "I", "--a", "1", "--b", "t", "--c", "t^3+u*t"],
     "prime field GF(2) at position 4: 't^3+u*t'"),
    (["cartier", "--G", "u,1@GF(2)"], "prime field GF(2) at position 0: 'u'"),
    (["cartier", "--G", "1,2*u@GF(3)"], "prime field GF(3) at position 2: '2*u'"),
])
def test_generator_in_prime_field_exits_one(argv, reason, capsys):
    # u is refused where it stands instead of being read as 0
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert f"generator u is not defined in the {reason}" in err


def test_enumerate_odd_characteristic_exits_one(capsys):
    code, out, err = run_cli(["enumerate", "--field", "GF(9)", "--no-timing"], capsys)
    assert code == 1
    assert out == ""
    assert "enumeration is specific to characteristic 2" in err


def test_field_above_table_limit_exits_one(capsys):
    code, out, err = run_cli(["fields", "--field", "GF(1099511627776)"], capsys)
    assert code == 1
    assert out == ""
    assert "field order 1099511627776 is above the supported limit 256" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "folclass.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "folclass" in proc.stdout


# --no-timing stdout digests of the commands the reports above do not pin;
# `fields` has no timing block and so no --no-timing
COMMAND_DIGESTS = {
    ("enumerate", "--field", "GF(4)", "--format", "csv"):
        "31cd7340c616b96cb45fc6d1bc11ab5e5a6dd7979be8e1f80af3c344fff540cc",
    ("verify-families", "--field", "GF(4)"):
        "6a30bd0db896a70bbd6bc3d07c8a6cfce21b4c18db72f6c82131448fc961a037",
    ("verify-families", "--field", "GF(4)", "--format", "csv"):
        "b028ad7b9463411c86224a13dd8089d2e12ae1d9d2efa87dd679afe89901255b",
    ("cartier", "--G", "s,t"):
        "08f7a57be4a572b8781ead59bab702fe8905e5aa06f5115e30dc975e77b6daf3",
    ("cartier", "--G", "u,u+1@GF(4)"):
        "0cb036cc1aeda7216488a9384bffc28ab65714b83336f7d938bacbe55e87caa0",
    ("cartier", "--G", "1,1@GF(3)"):
        "3b1eb3422d6383b6b8b688aa01d2f0a91f5300c228a7dcdd7f4df48051494b39",
    ("cartier", "--G", "s,t", "--e-max", "8"):
        "75ed33aa9b73509aef54375c0793cef30ff8f5bd9d0652bf5b9a6d97f31ff8ee",
    ("cartier", "--G", "u,u+1@GF(8;mod=x3+x+1)", "--e-max", "8"):
        "8ef600f5fd1e37f8d22794bc320ca149c62f3d2f08e2b1baee79509652e57e50",
    ("cartier", "--G", "1,1@GF(3)", "--e-max", "5"):
        "05ce1846a8d42cbb1dcd1231fa907dbbb2f2ce02a21ed32772b68733e85f9e1c",
    ("cartier", "--G", "1,1@GF(5)", "--e-max", "4"):
        "116e7fcf5d646f2496154b1e15242a7b31ac3c3c2141ad71d6d16310d9c24205",
    ("fields", "--field", "GF(9)", "--tables"):
        "5aa524554602f6501b14d927e454d64b6997ca59de45671a9348e0f9dd41af14",
    ("classify", "--field", "GF(4)", "--case", "II", "--a", "1", "--b", "t", "--c", "t^2+t"):
        "42d62f7336bb2c1f3af575c845364a93e5713dea4ad5fa731e4ffc83feac02b7",
    ("verify-theorem", "--field", "GF(4)", "--format", "csv"):
        "f30f3c137c27cfaea04da45b43a64a013890a516e48e9251af942c46498cd34f",
}


@pytest.mark.parametrize("argv", COMMAND_DIGESTS, ids=" ".join)
def test_command_stdout_pinned_by_digest(argv, capsys):
    timing = () if argv[0] == "fields" else ("--no-timing",)
    code, out, _err = run_cli([*argv, *timing], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMMAND_DIGESTS[argv]


TIMED_COMMANDS = {
    ("classify", "--field", "GF(2)", "--case", "I", "--a", "1", "--b", "t", "--c", "0"): False,
    ("enumerate", "--field", "GF(2)", "--case", "IV"): True,
    ("verify-families", "--field", "GF(2)", "--case", "IV"): False,
    ("verify-theorem", "--field", "GF(2)", "--case", "IV"): True,
    ("cartier", "--e-max", "1"): False,
}


@pytest.mark.parametrize("argv", TIMED_COMMANDS, ids=lambda argv: argv[0])
def test_timing_block_by_default_and_last(argv, capsys):
    # the runtime always, the worker count only for the scanning commands
    code, out, _err = run_cli(list(argv), capsys)
    assert code == 0
    payload = json.loads(out)
    assert list(payload)[-1] == "timing"
    assert payload["timing"]["runtime_seconds"] >= 0
    assert ("jobs" in payload["timing"]) is TIMED_COMMANDS[argv]
    code, out, _err = run_cli([*argv, "--no-timing"], capsys)
    assert code == 0
    assert "timing" not in json.loads(out)


def _drop_timing(value):
    """The JSON value without its timing block and runtime_seconds keys."""
    if isinstance(value, dict):
        return {k: _drop_timing(v) for k, v in value.items() if k not in ("timing", "runtime_seconds")}
    if isinstance(value, list):
        return [_drop_timing(v) for v in value]
    return value


def _blank_runtime_column(text):
    rows = [line.split(",") for line in text.splitlines()]
    if "runtime_seconds" in rows[0]:
        column = rows[0].index("runtime_seconds")
        for row in rows[1:]:
            row[column] = ""
    return "".join(",".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("argv", [
    *((command, "--field", "GF(4)", "--jobs", jobs, "--detail", "D.jsonl")
      for command in ("enumerate", "verify-theorem") for jobs in ("1", "2")),
    ("verify-families", "--field", "GF(4)"),
], ids=" ".join)
def test_timed_reports_differ_only_in_timing(argv, monkeypatch, tmp_path, capsys):
    # without its timing fields a timed report is the --no-timing one, byte
    # for byte: summary, CSV and detail, key order included
    monkeypatch.chdir(tmp_path)
    timed_cases = 0 if argv[0] == "verify-families" else 4  # completeness reports
    for fmt in ("json", "csv"):
        reports = []
        for timing in ((), ("--no-timing",)):
            assert run_cli([*argv, "--format", fmt, "--out", "S", *timing], capsys) == (0, "", "")
            reports.append({path.name: path.read_text() for path in tmp_path.iterdir()})
        timed, untimed = reports
        assert timed.keys() == untimed.keys()
        if fmt == "json":
            # the timing block's runtime and each completeness report's
            assert timed["S"].count('"runtime_seconds"') == 1 + timed_cases
            summary = json.dumps(_drop_timing(json.loads(timed["S"])), indent=2) + "\n"
        else:
            assert (timed["S"] != untimed["S"]) is bool(timed_cases)
            summary = _blank_runtime_column(timed["S"])
        assert summary == untimed["S"]
        if "D.jsonl" in timed:
            assert timed["D.jsonl"].count('"runtime_seconds"') == 4  # one per case head
            lines = timed["D.jsonl"].splitlines()
            detail = "".join(json.dumps(_drop_timing(json.loads(line))) + "\n" for line in lines)
            assert detail == untimed["D.jsonl"]


def test_verify_theorem_csv_counts_soundness_failures(monkeypatch, capsys):
    real = cli.verify_soundness

    def one_failure(spec, case):
        report = real(spec, case)
        report.failures.append({"family": "IV-iv", "params": {}, "triple": {}})
        return report

    monkeypatch.setattr(cli, "verify_soundness", one_failure)
    code, out, _err = run_cli(
        ["verify-theorem", "--field", "GF(2)", "--case", "IV", "--format", "csv", "--no-timing"],
        capsys,
    )
    assert code == 2
    header, row = out.strip().splitlines()
    assert header.endswith(",soundness_failures")
    assert row.startswith("GF(2),IV,") and row.endswith(",1")


def test_verify_families_refuses_detail(monkeypatch, tmp_path, capsys):
    # only the scanning commands write per-class detail lines
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify-families", "--field", "GF(2)", "--detail", "x.jsonl"])
    assert exc.value.code == 1
    assert "--detail" in capsys.readouterr().err
    assert not (tmp_path / "x.jsonl").exists()


def test_enumerate_reports_seeded_unmatched_class(monkeypatch, tmp_path, capsys):
    # without IV-iv one GF(2) case-IV class has no family: a finding, exit 2
    from folclass import classifier

    families = classifier.families_of_case
    monkeypatch.setattr(
        classifier,
        "families_of_case",
        lambda case: tuple(f for f in families(case) if f is not classifier.FamilyId.IV_IV),
    )
    monkeypatch.chdir(tmp_path)
    code, out, _err = run_cli(
        ["enumerate", "--field", "GF(2)", "--case", "IV", "--no-timing", "--detail", "D.jsonl"],
        capsys,
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["findings"] == 1
    (result,) = payload["results"]
    assert result["matched"] == 5
    unmatched = {"case": "IV", "a": "t+1", "b": "t", "c": "t^3+t^2+t+1", "field": "GF(2)"}
    assert result["unmatched"] == [unmatched]
    lines = [json.loads(line) for line in (tmp_path / "D.jsonl").read_text().splitlines()]
    assert len(lines) == 7
    assert [rec["matches"] for rec in lines[1:] if rec["triple"] == unmatched] == [[]]


# Records the modules that importing folclass and running a pooled scan and
# a trace load; the guard keeps a spawned worker from running the commands.
_STDLIB_ONLY = """
import json
import sys

before = set(sys.modules)
import folclass
from folclass import cli

if __name__ == "__main__":
    for argv in (["verify-theorem", "--field", "GF(2)", "--jobs", "2", "--no-timing", "--out", "v.json"],
                 ["cartier", "--e-max", "2", "--no-timing", "--out", "c.json"]):
        assert cli.main(argv) == 0
    print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_package_stays_stdlib_only(tmp_path):
    # compared with the modules loaded before the import, as site .pth files
    # may load third-party modules at startup
    script = tmp_path / "stdlib_only.py"
    script.write_text(_STDLIB_ONLY)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "folclass.cli" in loaded and "multiprocessing.pool" in loaded
    foreign = [
        name for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name.partition(".")[0] != "folclass" and name != "__mp_main__"
    ]
    assert foreign == []
