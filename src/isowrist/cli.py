"""Command-line interface.

Subcommands: enumerate (the 32-solution catalog), classify (the eight
wrist classes plus symmetry maps), verify (the full invariant suite),
posture (geometry of one wrist at its isotropic posture), and platonic
(vertex sets of the Platonic solids).  Exit codes: 0 success, 1
verification or internal consistency failure, 2 usage error.  When
verify fails a check and its --output file cannot be written, the
failed check wins: the write error is printed and the exit code is 1.

The parser is a table of each command's parameters, read with the
standard library alone.  Options go by their full name only, as
"--format json" or "--format=json"; a value given as its own token is
the value even when it starts with a dash ("--theta4 -1e-3"); the last
of a repeated option wins; "--" ends the options.  Options are
converted in the order they first appear, then the arguments, so the
first bad one is the one reported.  A usage error prints the command's
usage and an "Error: ..." line on stderr.
"""

from __future__ import annotations

import math
import os
import sys
from typing import Callable, NamedTuple

from . import documents
from .checks import run_checks
from .classify import CLASS_PATTERNS, distinct_wrists, isotropic_posture_geometry
from .solver import enumerate_solutions
from .spheregeom import PlatonicSolid

_PROG = "isowrist"


class _UsageError(Exception):
    """Bad input: the message goes to stderr under the command's usage, and the exit code is 2."""


class _Param(NamedTuple):
    """An option ("--name") or a required argument of a command, with the converter of its text.

    A converter raises ValueError with the reason a text is refused.
    """

    name: str
    metavar: str
    convert: Callable[[str], object]
    default: object
    help: str

    @property
    def is_option(self) -> bool:
        return self.name.startswith("--")

    @property
    def hint(self) -> str:
        """What an error message calls the parameter: an option's name, an argument's metavar."""
        return self.name if self.is_option else self.metavar


def _invalid(hint: str, reason: str) -> _UsageError:
    return _UsageError(f"Invalid value for {hint!r}: {reason}")


def _unknown(kind: str, name: str, known) -> _UsageError:
    """The error for an unknown option or command; it names the known ones that name abbreviates."""
    matches = [k for k in known if k.startswith(name)]
    hint = f" Did you mean {' or '.join(map(repr, matches))}?" if matches else ""
    return _UsageError(f"No such {kind} {name!r}.{hint}")


def _emit(text: str, output: str | None) -> None:
    """Print text, or write it to the --output file; a file that cannot be opened or written is a usage error."""
    if not output:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe fails here, inside main, and not at interpreter exit
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _invalid("--output", f"{output!r}: {exc.strerror}") from exc


def _output_path(text: str) -> str:
    """Refuse an empty --output, a directory, or a path whose directory is missing, before the command does any work."""
    if text == "":
        raise ValueError("'' is not a file name")
    if os.path.isdir(text):
        raise ValueError(f"{text!r} is a directory")
    folder = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(folder):
        raise ValueError(f"{text!r}: {folder!r} is not an existing directory")
    return text


def _choice(choices: tuple) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, choices))}.")
        return text

    return convert


def _count(maximum: int | None) -> Callable[[str], int]:
    """The converter of a whole number from 0 to maximum, or with no upper bound for None."""
    bounds = "x>=0" if maximum is None else f"0<=x<={maximum}"

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid integer.") from None
        if value < 0 or (maximum is not None and value > maximum):
            raise ValueError(f"{value} is not in the range {bounds}.")
        return value

    return convert


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid float.") from None
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return value


def _format(*choices: str) -> _Param:
    """The --format option; its first choice is the default."""
    return _Param("--format", f"[{'|'.join(choices)}]", _choice(choices), choices[0], "")


def _argument(name: str, choices: tuple) -> _Param:
    return _Param(name, f"{{{'|'.join(choices)}}}", _choice(choices), None, "")


_OUTPUT = _Param("--output", "FILE", _output_path, None, "Write to a file instead of stdout.")

#: Each command's function, and the parameters whose values it takes, in its own order.
_COMMANDS: dict = {}


def _command(name: str, *params: _Param):
    def register(function):
        _COMMANDS[name] = (function, params)
        return function

    return register


@_command("enumerate", _format("table", "json", "csv"), _OUTPUT)
def cmd_enumerate(fmt: str, output: str | None):
    """Emit all 32 solutions of the isotropy system in catalog order."""
    solutions = enumerate_solutions()
    if fmt == "csv":
        text = documents.solution_csv(solutions)
    elif fmt == "json":
        text = documents.json_text(documents.solution_document(solutions))
    else:
        text = documents.solution_table(solutions)
    _emit(text, output)


@_command("classify", _format("table", "json"), _OUTPUT)
def cmd_classify(fmt: str, output: str | None):
    """Emit the eight distinct wrist classes and the symmetry-map tables."""
    wrists = distinct_wrists()
    if fmt == "json":
        text = documents.json_text(documents.wrist_catalog_document(wrists))
    else:
        text = documents.wrist_catalog_table(wrists)
    _emit(text, output)


@_command(
    "verify",
    # the largest N numpy will try to draw: the (N, 8) float64 starts take N * 64 <= sys.maxsize bytes
    _Param("--oracle-starts", "N", _count(sys.maxsize // 64), 20000, "Newton starts; 0 skips the hunt."),
    _Param("--seed", "N", _count(None), 0, "Seed for all randomized checks."),
    _OUTPUT._replace(help="Also write the report to a file."),
)
def cmd_verify(oracle_starts: int, seed: int, output: str | None):
    """Run every invariant check and report worst-case margins."""
    try:
        results = run_checks(oracle_starts=oracle_starts, seed=seed)
    except MemoryError as exc:  # only the oracle's arrays grow with a flag
        raise _invalid("--oracle-starts", f"{oracle_starts} starts need more memory than is available") from exc
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        lines.append(f"[{r.status}] {r.name:<{width}}  worst {r.worst:.3e}  tol {r.tolerance:.1e}  {r.detail}")
    ran = [r for r in results if r.status != "SKIP"]
    failures = [r for r in ran if r.status == "FAIL"]
    summary = f"{len(ran) - len(failures)}/{len(ran)} checks passed"
    if len(ran) < len(results):
        summary += f", {len(results) - len(ran)} skipped"
    lines.append(summary)
    if failures:
        lines.append("failed: " + ", ".join(r.name for r in failures))
    text = "\n".join(lines) + "\n"
    _emit(text, None)
    if output:
        try:
            _emit(text, output)
        except _UsageError as exc:
            if not failures:
                raise
            _show_error("verify", exc)  # a failed check outranks the failed write: report both, exit 1
    return 1 if failures else 0


@_command(
    "posture",
    _argument("label", tuple(sorted(CLASS_PATTERNS))),
    _Param("--theta1", "DEG", _finite, 0.0, "Free joint 1 angle in degrees."),
    _Param("--theta4", "DEG", _finite, 0.0, "Free joint 4 angle in degrees."),
    _format("json", "obj-lines"),
    _OUTPUT,
)
def cmd_posture(label: str, theta1: float, theta4: float, fmt: str, output: str | None):
    """Emit one wrist class's geometry at its isotropic posture."""
    # a tiny negative angle's float mod rounds up to 360.0, which the second mod wraps to 0.0: both lie in [0, 360)
    theta1, theta4 = theta1 % 360.0 % 360.0, theta4 % 360.0 % 360.0
    wrist = next(w for w in distinct_wrists() if w.label == label)
    geometry = isotropic_posture_geometry(wrist, math.radians(theta1), math.radians(theta4))
    if fmt == "obj-lines":
        text = documents.posture_obj_lines(geometry)
    else:
        text = documents.json_text(documents.posture_document(label, theta1, theta4, geometry))
    _emit(text, output)


@_command("platonic", _argument("kind", tuple(k.name for k in PlatonicSolid)), _format("table", "json"), _OUTPUT)
def cmd_platonic(kind: str, fmt: str, output: str | None):
    """Emit a Platonic vertex set with its isotropy constants."""
    solid = PlatonicSolid[kind]
    if fmt == "json":
        text = documents.json_text(documents.platonic_document(solid))
    else:
        text = documents.platonic_table(solid)
    _emit(text, output)


def _parse(params: tuple, tokens: list) -> list | None:
    """The values of params, in their order, read from a command's tokens; None when they ask for --help."""
    options = {p.name: p for p in params if p.is_option}
    arguments = [p for p in params if not p.is_option]
    given = {}  # option -> its last text, in the order the options first appear
    positional = []
    wants_help = False
    rest = iter(tokens)
    for token in rest:
        if token == "--":
            positional.extend(rest)
        elif token.startswith("-") and token != "-":
            name, has_value, text = token.partition("=")
            if name == "--help":
                if has_value:
                    raise _UsageError("Option '--help' does not take a value.")
                wants_help = True
                continue
            if name not in options:
                raise _unknown("option", name, options)
            if not has_value:
                text = next(rest, None)
                if text is None:
                    raise _UsageError(f"Option {name!r} requires an argument.")
            given[options[name]] = text
        else:
            positional.append(token)
    if wants_help:
        return None
    values = {p: p.default for p in params}
    for param, text in [*given.items(), *zip(arguments, positional)]:
        try:
            values[param] = param.convert(text)
        except ValueError as exc:
            raise _invalid(param.hint, str(exc)) from None
    if len(positional) < len(arguments):
        raise _UsageError(f"Missing argument {arguments[len(positional)].hint!r}.")
    extra = positional[len(arguments) :]
    if extra:
        raise _UsageError(f"Got unexpected extra argument{'s' if len(extra) > 1 else ''} ({' '.join(extra)})")
    return [values[p] for p in params]


def _usage(name: str | None) -> str:
    if name is None:
        return f"Usage: {_PROG} [OPTIONS] COMMAND [ARGS]..."
    arguments = "".join(f" {p.metavar}" for p in _COMMANDS[name][1] if not p.is_option)
    return f"Usage: {_PROG} {name} [OPTIONS]{arguments}"


def _rows(rows: list) -> str:
    width = max(len(left) for left, _ in rows)
    return "".join(f"  {left:<{width}}  {right}".rstrip() + "\n" for left, right in rows)


def _help(name: str | None) -> str:
    """The --help text of a command, or of the program for None."""
    if name is None:
        summary, params = "Isotropic four-revolute spherical wrists: enumerate, classify, verify.", ()
        listing = "\nCommands:\n" + _rows([(n, function.__doc__) for n, (function, _) in sorted(_COMMANDS.items())])
    else:
        (function, params), listing = _COMMANDS[name], ""
        summary = function.__doc__
    options = []
    for p in params:
        if p.is_option:
            default = "" if p.default is None else f"  [default: {p.default}]"
            options.append((f"{p.name} {p.metavar}", (p.help + default).lstrip()))
    options.append(("--help", "Show this message and exit."))
    return f"{_usage(name)}\n\n  {summary}\n\nOptions:\n{_rows(options)}{listing}"


def _show_error(name: str | None, error: _UsageError) -> None:
    command = _PROG if name is None else f"{_PROG} {name}"
    sys.stderr.write(f"{_usage(name)}\nTry '{command} --help' for help.\n\nError: {error}\n")


def _run(args: list) -> int:
    """Run one command line (the arguments after the program name); returns the exit code."""
    if not args:
        sys.stderr.write(_help(None))
        return 2
    name = None
    try:
        if args[0] == "--help":
            sys.stdout.write(_help(None))
            return 0
        if args[0].startswith("-") and args[0] != "-":
            raise _unknown("option", args[0], ["--help"])
        if args[0] not in _COMMANDS:
            raise _unknown("command", args[0], _COMMANDS)
        name = args[0]
        function, params = _COMMANDS[name]
        values = _parse(params, args[1:])
        if values is None:
            sys.stdout.write(_help(name))
            return 0
        return function(*values) or 0
    except _UsageError as exc:
        _show_error(name, exc)
        return 2
    except ArithmeticError as exc:  # an internal inconsistency of any command: exit 1, without a traceback
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 1


def main():
    """Entry point for the console script: runs sys.argv's command line and exits with its code."""
    try:
        code = _run(sys.argv[1:])
    except BrokenPipeError:  # the reader of stdout has gone: exit 1 quietly, with stdout sent nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
