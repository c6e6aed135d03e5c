import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import runpy
import signal
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from isowrist import checks, classify, cli, solver
from isowrist.solver import SOLUTION_CATALOG


class _Result(NamedTuple):
    """What one command line printed on each stream, and its exit code."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode("utf-8")


class _Runner:
    """Runs command lines in this process through the CLI's parser; an exception escapes to the test."""

    def invoke(self, args):
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli._run(args)
        return _Result(code, out.getvalue(), err.getvalue())


@pytest.fixture()
def runner():
    return _Runner()


@pytest.fixture()
def off_by_1e9(monkeypatch):
    """Every residual that verify measures moved 1e-9 off zero, so solution-residuals alone fails."""
    exact = checks.residuals
    monkeypatch.setattr("isowrist.checks.residuals", lambda pts: exact(pts) + 1e-9)


class TestEnumerate:
    def test_csv_shape_and_header(self, runner):
        result = runner.invoke(["enumerate", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 33
        assert lines[0] == "#,c,s,x,y,z,u,v,w"

    def test_csv_round_trips_catalog_values(self, runner):
        result = runner.invoke(["enumerate", "--format", "csv"])
        rows = result.output.splitlines()[1:]
        for k, row in enumerate(rows, start=1):
            fields = row.split(",")
            assert int(fields[0]) == k
            values = tuple(float(f) for f in fields[1:])
            assert values == SOLUTION_CATALOG[k - 1]

    def test_csv_first_row_values(self, runner):
        result = runner.invoke(["enumerate", "--format", "csv"])
        fields = result.output.splitlines()[1].split(",")
        assert float(fields[1]) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert float(fields[2]) == pytest.approx(-0.942809, abs=1e-6)
        assert float(fields[8]) == pytest.approx(0.816497, abs=1e-6)

    def test_json_document_round_trip(self, runner):
        result = runner.invoke(["enumerate", "--format", "json"])
        doc = json.loads(result.output)
        assert doc["schema_version"] == "1"
        assert len(doc["solutions"]) == 32
        assert [e["index"] for e in doc["solutions"]] == list(range(1, 33))
        names = ("c", "s", "x", "y", "z", "u", "v", "w")
        for entry in doc["solutions"]:
            assert tuple(entry[name] for name in names) == SOLUTION_CATALOG[entry["index"] - 1]

    def test_json_radical_strings(self, runner):
        result = runner.invoke(["enumerate", "--format", "json"])
        doc = json.loads(result.output)
        first = doc["solutions"][0]
        assert first["radicals"]["c"] == "1/3"
        assert first["radicals"]["s"] == "-2*sqrt(2)/3"
        assert first["radicals"]["w"] == "sqrt(6)/3"

    def test_csv_and_json_encode_identical_values(self, runner):
        csv_out = runner.invoke(["enumerate", "--format", "csv"]).output
        json_doc = json.loads(runner.invoke(["enumerate", "--format", "json"]).output)
        names = ("c", "s", "x", "y", "z", "u", "v", "w")
        for row, entry in zip(csv_out.splitlines()[1:], json_doc["solutions"]):
            csv_values = [float(f) for f in row.split(",")[1:]]
            json_values = [entry[name] for name in names]
            assert csv_values == json_values

    def test_csv_deterministic(self, runner):
        a = runner.invoke(["enumerate", "--format", "csv"]).output
        b = runner.invoke(["enumerate", "--format", "csv"]).output
        assert a == b

    def test_table_format(self, runner):
        result = runner.invoke(["enumerate"])
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 33

    def test_unknown_format_is_usage_error(self, runner):
        result = runner.invoke(["enumerate", "--format", "yaml"])
        assert result.exit_code == 2

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "solutions.csv"
        result = runner.invoke(["enumerate", "--format", "csv", "--output", str(target)])
        assert result.exit_code == 0
        assert len(target.read_text().splitlines()) == 33


class TestClassify:
    def test_json_catalog(self, runner):
        result = runner.invoke(["classify", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert [c["label"] for c in doc["classes"]] == list("abcdefgh")
        for entry in doc["classes"]:
            assert entry["alpha_4"] == "undefined"
            assert entry["joints"][0]["free"] and entry["joints"][3]["free"]
            assert entry["member_count"] == 24

    def test_reflection_map_entry(self, runner):
        doc = json.loads(runner.invoke(["classify", "--format", "json"]).output)
        maps = {(m["source"], m["operation"]): m["target"] for m in doc["reflection_maps"]}
        assert maps[(18, "reflect_xz")] == 27
        assert maps[(18, "reflect_xy")] == 19
        assert maps[(18, "reflect_xz_then_xy")] == 26

    def test_antipodal_map_entries(self, runner):
        doc = json.loads(runner.invoke(["classify", "--format", "json"]).output)
        maps = {tuple(m["subset"]): m["target"] for m in doc["antipodal_maps"]}
        assert maps[(2,)] == 10 and maps[(2, 3, 4)] == 15

    def test_table_format(self, runner):
        result = runner.invoke(["classify"])
        assert result.exit_code == 0
        assert "alpha_4 undefined" in result.output
        rows = [l for l in result.output.splitlines() if re.match(r"^ {2}[a-h] {2}", l)]
        assert len(rows) == 8


class TestVerify:
    def test_defaults_pass_with_reduced_oracle(self, runner):
        result = runner.invoke(["verify", "--oracle-starts", "1500", "--seed", "3"])
        assert result.exit_code == 0
        assert "[FAIL]" not in result.output
        assert "18/18 checks passed" in result.output

    def test_failed_check_exits_1(self, runner, off_by_1e9):
        result = runner.invoke(["verify", "--oracle-starts", "0"])
        assert result.exit_code == 1
        assert "solution-residuals" in result.output
        assert "[FAIL]" in result.output

    def test_zero_oracle_starts_skips_hunt(self, runner):
        result = runner.invoke(["verify", "--oracle-starts", "0"])
        assert result.exit_code == 0
        assert "[SKIP] oracle-root-hunt" in result.output

    def test_skipped_check_is_not_counted_as_passed(self, runner):
        result = runner.invoke(["verify", "--oracle-starts", "0"])
        assert result.output.splitlines()[-1] == "17/17 checks passed, 1 skipped"
        assert "failed:" not in result.output

    def test_failures_are_listed(self, runner, off_by_1e9):
        result = runner.invoke(["verify", "--oracle-starts", "0"])
        summary, failed = result.output.splitlines()[-2:]
        assert re.fullmatch(r"\d+/17 checks passed, 1 skipped", summary)
        assert failed.startswith("failed: ") and "solution-residuals" in failed


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--oracle-starts", "-5"],
        ["verify", "--seed", "-1"],
        ["enumerate", "--format", "xml"],
        ["classify", "--format", "obj-lines"],
        ["posture", "z"],
        ["posture", "a", "--theta1", "inf"],
        ["posture", "a", "--theta4", "nan"],
        ["posture", "a", "--theta1", "-inf"],
        ["posture", "a", "--theta4", "-inf"],
        ["posture", "a", "--theta1", "--theta4"],
        ["enumerate", "--output", "/nonexistent/dir/x.csv"],
        ["classify", "--output", "/nonexistent/dir/x.txt"],
        ["verify", "--oracle-starts", "0", "--output", "/nonexistent/dir/x.txt"],
        ["posture", "a", "--output", "/nonexistent/dir/x.json"],
        ["platonic", "cube", "--output", "/nonexistent/dir/x.txt"],
    ],
)
def test_bad_input_is_usage_error(runner, args):
    result = runner.invoke(args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "Invalid value" in result.output


#: Each subcommand with the first library call it makes.
FIRST_WORK = [
    (["enumerate"], "isowrist.cli.enumerate_solutions"),
    (["classify"], "isowrist.cli.distinct_wrists"),
    (["verify"], "isowrist.cli.run_checks"),
    (["posture", "a"], "isowrist.cli.distinct_wrists"),
    (["platonic", "cube"], "isowrist.cli.documents.platonic_table"),
]


@pytest.mark.parametrize("args, target", FIRST_WORK)
def test_missing_output_directory_is_rejected_before_any_work(runner, monkeypatch, args, target):
    calls = []
    monkeypatch.setattr(target, lambda *a, **k: calls.append(a))
    result = runner.invoke(args + ["--output", "/nonexistent/dir/x.txt"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Invalid value for '--output'" in result.output
    assert calls == []


@pytest.mark.parametrize("args, target", FIRST_WORK)
def test_empty_output_is_rejected_before_any_work(runner, monkeypatch, args, target):
    calls = []
    monkeypatch.setattr(target, lambda *a, **k: calls.append(a))
    result = runner.invoke(args + ["--output", ""])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Invalid value for '--output'" in result.output
    assert calls == []


@pytest.mark.parametrize("args, target", FIRST_WORK)
def test_directory_output_is_rejected_before_any_work(runner, monkeypatch, tmp_path, args, target):
    calls = []
    monkeypatch.setattr(target, lambda *a, **k: calls.append(a))
    result = runner.invoke(args + ["--output", str(tmp_path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Invalid value for '--output'" in result.output
    assert calls == []


class _FullDiskFile(io.StringIO):
    """A file that accepts nothing: write or close (the buffer flush) fails with ENOSPC."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def close(self):
        was_open = not self.closed  # fail once only, not again when the object is collected
        super().close()
        if self.failing == "close" and was_open:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "close"])
@pytest.mark.parametrize(
    "args",
    [["enumerate"], ["classify"], ["verify", "--oracle-starts", "0"], ["posture", "a"], ["platonic", "cube"]],
    ids=lambda args: args[0],
)
def test_failed_output_write_is_usage_error(runner, monkeypatch, tmp_path, args, failing):
    opened = []

    def full_disk_open(path, *a, **k):
        opened.append(path)
        return _FullDiskFile(failing)

    monkeypatch.setattr("isowrist.cli.open", full_disk_open, raising=False)
    target = str(tmp_path / "out.txt")
    result = runner.invoke(args + ["--output", target])
    assert opened == [target]
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert f"Invalid value for '--output': {target!r}: No space left on device" in result.output


@pytest.mark.parametrize("failing", ["write", "close"])
def test_failed_check_outranks_failed_output_write(runner, monkeypatch, tmp_path, off_by_1e9, failing):
    monkeypatch.setattr("isowrist.cli.open", lambda path, *a, **k: _FullDiskFile(failing), raising=False)
    target = str(tmp_path / "out.txt")
    args = ["verify", "--oracle-starts", "0", "--output", target]
    result = runner.invoke(args)
    assert result.exit_code == 1
    assert "[FAIL]" in result.stdout
    assert "Traceback" not in result.output
    assert f"Invalid value for '--output': {target!r}: No space left on device" in result.stderr


def test_output_under_a_file_is_rejected(runner, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = runner.invoke(["platonic", "cube", "--output", str(blocker / "x.txt")])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Invalid value for '--output'" in result.output


@pytest.mark.parametrize(
    "args, target",
    [
        (["enumerate"], "isowrist.cli.enumerate_solutions"),
        (["classify"], "isowrist.cli.distinct_wrists"),
        (["verify", "--oracle-starts", "0"], "isowrist.checks.enumerate_solutions"),
        (["posture", "a"], "isowrist.cli.distinct_wrists"),
    ],
)
def test_internal_failure_exits_1_without_traceback(runner, monkeypatch, args, target):
    def fail(*_):
        raise ArithmeticError("injected")

    monkeypatch.setattr(target, fail)
    # an exception escaping the command would propagate here instead of becoming an exit code
    result = runner.invoke(args)
    assert result.exit_code == 1
    assert "internal consistency failure: injected" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_command_has_no_tolerance_option(runner, command):
    # catalog matching and every verify check run at fixed bounds (1e-12 is solver.RESIDUAL_TOL)
    result = runner.invoke([command, "--tolerance", "1e-12"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "No such option" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["enumerate", "--form", "json"],
        ["classify", "-f", "json"],
        ["verify", "--oracle", "0"],
        ["posture", "a", "--theta", "5"],
        ["posture", "-5"],
        ["platonic", "cube", "--output-file", "x.txt"],
    ],
)
def test_unknown_or_abbreviated_option_is_usage_error(runner, args):
    result = runner.invoke(args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "No such option" in result.output


@pytest.mark.parametrize("option", ["--theta1", "--theta4"])
@pytest.mark.parametrize("angle", ["-1e-3", "-315", "-0.0"])
def test_option_value_that_starts_with_a_dash_is_the_value(runner, option, angle):
    # a value given as its own token is taken as the value, though it looks like an option
    apart = runner.invoke(["posture", "a", option, angle])
    joined = runner.invoke(["posture", "a", f"{option}={angle}"])
    assert apart.exit_code == joined.exit_code == 0
    assert apart.stdout_bytes == joined.stdout_bytes


COMMAND_NAMES = ["classify", "enumerate", "platonic", "posture", "verify"]


def test_bare_command_is_usage_error_naming_every_command(runner):
    result = runner.invoke([])
    assert result.exit_code == 2
    assert result.stdout == ""
    listed = {line.split()[0] for line in result.stderr.splitlines() if line.startswith("  ") and line.strip()}
    assert listed >= set(COMMAND_NAMES)


def test_help_lists_every_command(runner):
    result = runner.invoke(["--help"])
    assert result.exit_code == 0
    assert result.stderr == ""
    listed = {line.split()[0] for line in result.stdout.splitlines() if line.startswith("  ") and line.strip()}
    assert listed >= set(COMMAND_NAMES)


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_command_help_exits_0_and_lists_its_options(runner, command):
    result = runner.invoke([command, "--help"])
    assert result.exit_code == 0
    assert result.stderr == ""
    assert result.stdout.startswith("Usage: ")
    options, _ = _readme_synopsis()[command]
    assert [option for option in sorted(options) if option not in result.stdout] == []


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_synopsis() -> dict:
    """Options and arguments of each subcommand in the README's "Command line" sh block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    synopsis = {}
    for line in block.splitlines():
        _, name, *tokens = line.replace("[", " ").replace("]", " ").split()
        options = {t for t in tokens if t.startswith("--")}
        # an upper-case word is an argument unless it is the value of the option before it
        arguments = {t for prev, t in zip([""] + tokens, tokens) if t.isupper() and not prev.startswith("--")}
        synopsis[name] = (options, arguments)
    return synopsis


def test_readme_synopsis_lists_every_parameter():
    synopsis = _readme_synopsis()
    assert sorted(synopsis) == sorted(cli._COMMANDS)
    for name, (_, params) in cli._COMMANDS.items():
        options = {p.name for p in params if p.is_option}
        arguments = {p.name.upper() for p in params if not p.is_option}
        assert synopsis[name] == (options, arguments), name


@pytest.mark.parametrize("command", ["classify", "enumerate"])
def test_json_artifacts_are_byte_identical_across_runs(runner, command):
    first = runner.invoke([command, "--format", "json"])
    second = runner.invoke([command, "--format", "json"])
    assert first.exit_code == second.exit_code == 0
    assert first.stdout_bytes == second.stdout_bytes


def test_verify_is_byte_identical_for_a_seed_past_64_bits(runner):
    args = ["verify", "--oracle-starts", "0", "--seed", str(2**70)]
    first = runner.invoke(args)
    second = runner.invoke(args)
    assert first.exit_code == second.exit_code == 0
    assert first.stdout_bytes == second.stdout_bytes


GOLDEN = Path(__file__).parent / "golden"
POSTURE_C = ["posture", "c", "--theta1", "33", "--theta4", "-12"]
GOLDEN_COMMANDS = {
    "enumerate.txt": ["enumerate"],
    "enumerate.json": ["enumerate", "--format", "json"],
    "enumerate.csv": ["enumerate", "--format", "csv"],
    "classify.txt": ["classify"],
    "classify.json": ["classify", "--format", "json"],
    "posture-c.json": POSTURE_C,
    "posture-c.obj": POSTURE_C + ["--format", "obj-lines"],
    "platonic-cube.txt": ["platonic", "cube"],
    "platonic-cube.json": ["platonic", "cube", "--format", "json"],
    "platonic-icosahedron.txt": ["platonic", "icosahedron"],
    "platonic-icosahedron.json": ["platonic", "icosahedron", "--format", "json"],
    "platonic-dodecahedron.json": ["platonic", "dodecahedron", "--format", "json"],
    "verify-quick-seed7.txt": ["verify", "--oracle-starts", "0", "--seed", "7"],
    "verify-quick-seed125.txt": ["verify", "--oracle-starts", "0", "--seed", "125"],
    "verify-seed0.txt": ["verify", "--seed", "0"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_output_matches_golden_file(runner, name):
    # tests/golden/ holds the CLI's own output; rewrite a file only for an intended change of output
    result = runner.invoke(GOLDEN_COMMANDS[name])
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["classify.txt", "classify.json", "posture-c.json", "posture-c.obj"])
def test_wrist_commands_build_no_solution_records(runner, monkeypatch, name):
    # the wrist classes are functions of the catalog: classify and posture never enumerate or solve
    def refuse(*args, **kwargs):
        raise AssertionError("a wrist command built a solution record")

    monkeypatch.setattr("isowrist.cli.enumerate_solutions", refuse)
    monkeypatch.setattr("isowrist.solver.enumerate_solutions", refuse)
    monkeypatch.setattr("isowrist.solver.solve_closed_form_stack", refuse)
    result = runner.invoke(GOLDEN_COMMANDS[name])
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / name).read_bytes()


def test_a_session_of_wrist_commands_builds_the_classes_once(runner, monkeypatch):
    # distinct_wrists keeps the classes of each catalog object it reads, so the commands of one process share a build
    build = classify.dh_from_axes_stack
    calls = []

    def counted(a):
        calls.append(len(a))
        return build(a)

    fresh = solver.CATALOG_SIGNS.copy()  # a catalog object no call has read, so the first command builds
    fresh.setflags(write=False)
    monkeypatch.setattr(classify, "CATALOG_SIGNS", fresh)
    monkeypatch.setattr(classify, "dh_from_axes_stack", counted)
    for args in [["classify", "--format", "json"], ["classify"], ["posture", "a"], ["posture", "c"], ["posture", "h"]]:
        assert runner.invoke(args).exit_code == 0
    assert calls == [8]


#: The golden files whose bytes hold on every OpenBLAS kernel and numpy SIMD path of KERNEL_SETTINGS.  The verify
#: reports, the posture of class c and the dodecahedron move in their last bits under some of them.
KERNEL_PROOF = [
    "classify.json", "classify.txt", "enumerate.csv", "enumerate.json", "enumerate.txt",
    "platonic-cube.json", "platonic-cube.txt", "platonic-icosahedron.json", "platonic-icosahedron.txt",
]
#: Per-process settings that move numpy's BLAS to another OpenBLAS kernel, or numpy off its AVX-512 code paths.
KERNEL_SETTINGS = {
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
}
DIGEST_TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


@pytest.mark.parametrize("setting", sorted(KERNEL_SETTINGS))
def test_kernel_proof_golden_files_hold_on_other_kernels(setting):
    # a fresh interpreter, since OpenBLAS and numpy read these settings once, at load
    here = runpy.run_path(str(DIGEST_TOOL))["kernel_lines"]()
    if "DYNAMIC_ARCH" not in here[2]:
        pytest.skip(f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so no other kernel is chosen per process: {here[2]}")
    code = (
        "import contextlib, hashlib, io, runpy, sys\n"
        "from isowrist import cli\n"
        "print(*runpy.run_path(sys.argv[1])['kernel_lines'](), sep='\\n')\n"
        f"for name in {KERNEL_PROOF!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"        cli._run({GOLDEN_COMMANDS!r}[name])\n"
        "    print(name, hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest())\n"
    )
    src = str(Path(solver.__file__).resolve().parents[1])
    env = {**os.environ, **KERNEL_SETTINGS[setting], "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code, str(DIGEST_TOOL)], env=env, capture_output=True, text=True)
    if run.returncode == -signal.SIGILL:
        pytest.skip(f"{KERNEL_SETTINGS[setting]} asks for instructions this CPU lacks")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    if lines[: len(here)] == here:
        pytest.skip(f"{KERNEL_SETTINGS[setting]} leaves numpy's BLAS kernel and SIMD paths as they are here")
    expected = [f"{name} {hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest()}" for name in KERNEL_PROOF]
    assert lines[len(here) :] == expected


class TestPosture:
    def test_class_a_condition_number(self, runner):
        doc = json.loads(runner.invoke(["posture", "a"]).output)
        assert abs(doc["isotropy"]["condition_number"] - 1.0) < 1e-9
        assert doc["isotropy"]["is_isotropic"]
        assert doc["consecutive_dot_products"] == pytest.approx([-1.0 / 3.0] * 3, abs=1e-9)

    def test_class_e_dot_products(self, runner):
        doc = json.loads(runner.invoke(["posture", "e"]).output)
        assert doc["consecutive_dot_products"] == pytest.approx([1.0 / 3.0] * 3, abs=1e-9)

    def test_condition_number_independent_of_theta1(self, runner):
        base = json.loads(runner.invoke(["posture", "a"]).output)
        turned = json.loads(runner.invoke(["posture", "a", "--theta1", "45"]).output)
        assert abs(base["isotropy"]["condition_number"] - turned["isotropy"]["condition_number"]) < 1e-12

    @pytest.mark.parametrize("option, key", [("--theta1", "theta_1_deg"), ("--theta4", "theta_4_deg")])
    @pytest.mark.parametrize(
        "angle, wrapped", [("405", 45.0), ("-315", 45.0), ("360", 0.0), ("-0.0", 0.0), ("-1e-20", 0.0), ("-1e-15", 0.0)]
    )
    def test_angles_wrap_mod_360(self, runner, option, key, angle, wrapped):
        # -1e-20 % 360.0 rounds to 360.0: the angle must still wrap into [0, 360), to the bytes of the wrapped angle
        output = runner.invoke(["posture", "a", option, angle]).output
        assert json.loads(output)[key] == wrapped
        assert output == runner.invoke(["posture", "a", option, repr(wrapped)]).output

    def test_obj_lines_format(self, runner):
        result = runner.invoke(["posture", "b", "--format", "obj-lines"])
        lines = result.output.splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 5
        assert sum(1 for l in lines if l.startswith("l ")) == 4
        assert lines[0] == "v 0 0 0"

    def test_unknown_label_is_usage_error(self, runner):
        result = runner.invoke(["posture", "z"])
        assert result.exit_code == 2


class TestPlatonic:
    def test_cube(self, runner):
        doc = json.loads(runner.invoke(["platonic", "cube", "--format", "json"]).output)
        assert doc["n"] == 8
        assert doc["sigma_sq"] == pytest.approx(8.0 / 3.0, abs=1e-12)
        assert doc["isotropic"]
        assert "sigma^2 = n/3" in doc["footnote"]

    def test_octahedron(self, runner):
        doc = json.loads(runner.invoke(["platonic", "octahedron", "--format", "json"]).output)
        assert doc["n"] == 6
        assert doc["sigma_sq"] == pytest.approx(2.0, abs=1e-12)

    def test_tetrahedron_vertices(self, runner):
        doc = json.loads(runner.invoke(["platonic", "tetrahedron", "--format", "json"]).output)
        assert doc["vertices"][0] == [1.0, 0.0, 0.0]
        assert doc["vertices"][1][1] == pytest.approx(-2.0 * math.sqrt(2.0) / 3.0, abs=1e-15)

    def test_table_format(self, runner):
        result = runner.invoke(["platonic", "dodecahedron"])
        assert result.exit_code == 0
        assert "n = 20" in result.output

    def test_unknown_kind_is_usage_error(self, runner):
        result = runner.invoke(["platonic", "sphere"])
        assert result.exit_code == 2


@pytest.mark.parametrize(
    "starts, reason",
    [
        (10**14, "starts need more memory than is available"),
        (sys.maxsize // 64 + 1, f"is not in the range 0<=x<={sys.maxsize // 64}."),
        (10**20, f"is not in the range 0<=x<={sys.maxsize // 64}."),
    ],
)
def test_unallocatable_oracle_starts_is_usage_error(runner, starts, reason):
    # numpy refuses the (10**14, 8) draw of starts, 5.7 PiB, at once: before any allocation or fork;
    # past sys.maxsize // 64 it would raise ValueError instead, so the option's range refuses those counts
    result = runner.invoke(["verify", "--oracle-starts", str(starts)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output
    message = f"Error: Invalid value for '--oracle-starts': {starts} {reason}"
    assert [line for line in result.stderr.splitlines() if line.startswith("Error")] == [message]


class _AttributesOnly:
    """A value record seen through its attributes alone: it cannot be unpacked, iterated, indexed or sized."""

    __slots__ = ("_record",)

    def __init__(self, record):
        self._record = record

    def __getattr__(self, name):
        return getattr(self._record, name)


#: The golden commands that build value records; verify-seed0.txt adds only the oracle, which builds none.
RECORD_COMMANDS = [name for name in sorted(GOLDEN_COMMANDS) if not name.startswith(("platonic", "verify-seed"))]


@pytest.mark.parametrize("name", RECORD_COMMANDS)
def test_commands_read_value_records_by_attribute_only(runner, monkeypatch, name):
    # a NamedTuple record also works as a plain tuple; every library caller must read it by field name
    for module, record in ((solver, "SolutionRecord"), (classify, "ClassMember"), (classify, "SolutionMap")):
        record_type = getattr(module, record)
        monkeypatch.setattr(module, record, lambda *args, _type=record_type: _AttributesOnly(_type(*args)))
    result = runner.invoke(GOLDEN_COMMANDS[name])
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(name for name in GOLDEN_COMMANDS if name.endswith(".json")))
def test_json_artifacts_never_take_the_python_encoder(runner, monkeypatch, name):
    # json.dumps with an indent builds its text in pure Python through _make_iterencode; no artifact may
    def refuse(*args, **kwargs):
        raise AssertionError("an artifact went through json's pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    result = runner.invoke(GOLDEN_COMMANDS[name])
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / name).read_bytes()
