"""Command-line interface.

Subcommands: enumerate (the 32-solution catalog), classify (the eight
wrist classes plus symmetry maps), verify (the full invariant suite),
posture (geometry of one wrist at its isotropic posture), and platonic
(vertex sets of the Platonic solids).  Exit codes: 0 success, 1
verification or internal consistency failure, 2 usage error.  When
verify fails a check and its --output file cannot be written, the
failed check wins: the write error is printed and the exit code is 1.
"""

from __future__ import annotations

import math
import os
import sys

import click

from . import documents
from .checks import run_checks
from .classify import CLASS_PATTERNS, distinct_wrists, isotropic_posture_geometry
from .solver import enumerate_solutions
from .spheregeom import PlatonicSolid


def _emit(text: str, output: str | None) -> None:
    """Echo text, or write it to the --output file; a file that cannot be opened or written is a usage error."""
    if not output:
        click.echo(text, nl=False)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.BadParameter(f"{output!r}: {exc.strerror}", param_hint="'--output'") from exc


def _output_dir(ctx, param, value: str | None) -> str | None:
    """Reject an empty --output, or one whose directory is missing, before the command does any work."""
    if value == "":
        raise click.BadParameter("'' is not a file name")
    if value:
        folder = os.path.dirname(os.path.abspath(value))
        if not os.path.isdir(folder):
            raise click.BadParameter(f"{value!r}: {folder!r} is not an existing directory")
    return value


def _output_option(help_text: str = "Write to a file instead of stdout."):
    return click.option(
        "--output", type=click.Path(dir_okay=False), default=None, callback=_output_dir, help=help_text
    )


def _finite(ctx, param, value: float) -> float:
    if not math.isfinite(value):
        raise click.BadParameter(f"{value!r} is not a finite number")
    return value


class _Group(click.Group):
    def invoke(self, ctx):
        """Report an internal ArithmeticError of any subcommand as exit 1, without a traceback."""
        try:
            return super().invoke(ctx)
        except ArithmeticError as exc:
            click.echo(f"internal consistency failure: {exc}", err=True)
            ctx.exit(1)


@click.group(cls=_Group)
def cli():
    """Isotropic four-revolute spherical wrists: enumerate, classify, verify."""


@cli.command("enumerate")
@click.option("--format", "fmt", type=click.Choice(["table", "json", "csv"]), default="table", show_default=True)
@_output_option()
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


@cli.command("classify")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table", show_default=True)
@_output_option()
def cmd_classify(fmt: str, output: str | None):
    """Emit the eight distinct wrist classes and the symmetry-map tables."""
    wrists = distinct_wrists()
    if fmt == "json":
        text = documents.json_text(documents.wrist_catalog_document(wrists))
    else:
        text = documents.wrist_catalog_table(wrists)
    _emit(text, output)


@cli.command("verify")
@click.option(  # the largest N numpy will try to draw: the (N, 8) float64 starts take N * 64 <= sys.maxsize bytes
    "--oracle-starts", type=click.IntRange(min=0, max=sys.maxsize // 64), default=20000, show_default=True,
    help="Newton starts; 0 skips the hunt.",
)
@click.option(
    "--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Seed for all randomized checks."
)
@_output_option("Also write the report to a file.")
def cmd_verify(oracle_starts: int, seed: int, output: str | None):
    """Run every invariant check and report worst-case margins."""
    try:
        results = run_checks(oracle_starts=oracle_starts, seed=seed)
    except MemoryError as exc:  # only the oracle's arrays grow with a flag
        message = f"{oracle_starts} starts need more memory than is available"
        raise click.BadParameter(message, param_hint="'--oracle-starts'") from exc
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
    click.echo(text, nl=False)
    if output:
        try:
            _emit(text, output)
        except click.BadParameter as exc:
            if not failures:
                raise
            exc.show()  # a failed check outranks the failed write: report both, exit 1
    sys.exit(1 if failures else 0)


@cli.command("posture")
@click.argument("label", type=click.Choice(sorted(CLASS_PATTERNS)))
@click.option(
    "--theta1", type=float, default=0.0, show_default=True, callback=_finite, help="Free joint 1 angle in degrees."
)
@click.option(
    "--theta4", type=float, default=0.0, show_default=True, callback=_finite, help="Free joint 4 angle in degrees."
)
@click.option("--format", "fmt", type=click.Choice(["json", "obj-lines"]), default="json", show_default=True)
@_output_option()
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


@cli.command("platonic")
@click.argument("kind", type=click.Choice([k.name for k in PlatonicSolid]))
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table", show_default=True)
@_output_option()
def cmd_platonic(kind: str, fmt: str, output: str | None):
    """Emit a Platonic vertex set with its isotropy constants."""
    solid = PlatonicSolid[kind]
    if fmt == "json":
        text = documents.json_text(documents.platonic_document(solid))
    else:
        text = documents.platonic_table(solid)
    _emit(text, output)


def main():
    """Entry point for the console script."""
    cli()


if __name__ == "__main__":
    main()
