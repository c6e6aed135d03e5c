"""One benchmark operation, run in a fresh interpreter.

Reads a JSON request on stdin, {"root": ..., "commands": [[arg, ...], ...],
"trace": bool, "probe": bool}, and prints one JSON object on stdout.
In order it times the reference kernel, `import isowrist.cli`, the kernel
again, then each command through the console entry point
`isowrist.cli.main()` followed by the kernel once more.  Each measured
section is divided by the mean of the kernel times on either side of it
and multiplied by NOMINAL_KERNEL_S, so the reported figures are
normalised seconds that do not follow the machine's speed drift.

With "trace", the public names the library's modules look up are
wrapped after the import, and every call records a span (name, start,
end, parent) in memory.  With "probe", fixed batches of layer calls and a
near-root oracle hunt are timed after the commands.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import sys
import time

#: Fixed once; changing the kernel or this constant re-bases every number.
NOMINAL_KERNEL_S = 0.007
KERNEL_LOOPS = 20_000
KERNEL_REPEATS = 5

DOCUMENT_FUNCTIONS = (
    "solution_document",
    "solution_csv",
    "solution_table",
    "wrist_catalog_document",
    "wrist_catalog_table",
    "posture_document",
    "posture_obj_lines",
    "platonic_document",
    "platonic_table",
)


def reference_kernel() -> int:
    """Fixed pure-Python work: integer LCG steps, dict stores, float adds."""
    table = {}
    acc = 0
    total = 0.0
    for i in range(KERNEL_LOOPS):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        table[acc & 255] = i
        total += (acc % 97) * 0.25
    return acc + len(table) + int(total)


def kernel_seconds() -> float:
    """Mean time of one kernel pass over KERNEL_REPEATS passes."""
    start = time.perf_counter()
    for _ in range(KERNEL_REPEATS):
        reference_kernel()
    return (time.perf_counter() - start) / KERNEL_REPEATS


class Tracer:
    """In-memory spans around wrapped library calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.notes = {}  # per-span-name counters from call results

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(spans[index], result)
            return result

        return traced

    def note(self, key: str, value) -> None:
        self.notes.setdefault(key, []).append(value)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points wherever an isowrist module binds them."""
    from isowrist import checks, classify, documents, kinematics, solver, spheregeom

    def oracle_counts(span, report):
        iters = report.iterations[report.iterations >= 0]
        tracer.note("solver.oracle.starts", report.n_starts)
        tracer.note("solver.oracle.converged", report.n_converged)
        tracer.note("solver.oracle.discarded", report.n_discarded)
        tracer.note("solver.oracle.newton_iterations", int(iters.sum()))
        tracer.note("solver.oracle.max_iterations", int(iters.max()) if iters.size else 0)

    def chain_count(span, wrists):
        tracer.note("classify.chains", sum(len(w.members) for w in wrists))

    def check_name(span, result):
        span[0] = f"checks.{result.name}"

    hooks = {"oracle_root_hunt": oracle_counts, "distinct_wrists": chain_count}
    targets = [
        (solver, ("enumerate_solutions", "oracle_root_hunt")),
        (classify, ("distinct_wrists", "antipodal_map_table", "reflection_map_table", "isotropic_posture_geometry")),
        (kinematics, ("isotropy_report", "forward_axes", "dh_from_axes")),
        (spheregeom, ("second_moment", "antipodal_exchange", "reflect_about_plane")),
        (documents, DOCUMENT_FUNCTIONS),
        (checks, tuple(n for n in vars(checks) if n.startswith("check_")) + ("run_checks",)),
    ]
    modules = [m for name, m in sys.modules.items() if name.startswith("isowrist")]
    for home, names in targets:
        layer = home.__name__.rsplit(".", 1)[-1]
        for name in names:
            original = getattr(home, name)
            on_result = check_name if name.startswith("check_") else hooks.get(name)
            traced = tracer.wrap(f"{layer}.{name}", original, on_result)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, traced)
    point_set = spheregeom.PointSet
    point_set.__init__ = tracer.wrap("spheregeom.PointSet", point_set.__init__)


def run_command(cli_main, args):
    """Run the console entry point on args; returns (output, exit code, raw seconds)."""
    sys.argv = ["isowrist", *args]
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            cli_main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return out.getvalue(), code, time.perf_counter() - start


def probe_batches():
    """Fixed batches of layer calls; yields (metric name, calls, seconds)."""
    import numpy as np

    from isowrist import kinematics, solver, spheregeom

    import reference

    rng = np.random.default_rng(20070724)
    roots = np.array(reference.ROOTS)
    near = (roots[:, None, :] + rng.normal(scale=1e-3, size=(32, 64, 8))).reshape(-1, 8)
    start = time.perf_counter()
    report = solver.oracle_root_hunt(starts=near)
    yield "solver.oracle.near_roots_s", 1, time.perf_counter() - start
    if report.n_roots != 32:
        raise RuntimeError(f"near-root hunt found {report.n_roots} roots")

    axes = [spheregeom.PointSet(reference.root_axes(r)) for r in reference.ROOTS]
    arrays = [a.array for a in axes]
    jacobians = [kinematics.jacobian_from_axes(a) for a in axes]
    chains = [kinematics.dh_from_axes(a) for a in axes]
    angles = [(0.3, *dh.joints[1:3], 1.1) for dh in chains]
    normal = (0.0, 0.0, 1.0)
    batches = {
        "kinematics.isotropy_report": lambda k: kinematics.isotropy_report(jacobians[k]),
        "kinematics.forward_axes": lambda k: kinematics.forward_axes(chains[k], angles[k]),
        "kinematics.dh_from_axes": lambda k: kinematics.dh_from_axes(axes[k]),
        "spheregeom.PointSet": lambda k: spheregeom.PointSet(arrays[k]),
        "spheregeom.second_moment": lambda k: spheregeom.second_moment(axes[k]),
        "spheregeom.antipodal_exchange": lambda k: spheregeom.antipodal_exchange(axes[k], (2, 4)),
        "spheregeom.reflect_about_plane": lambda k: spheregeom.reflect_about_plane(axes[k], normal),
    }
    for name, call in batches.items():
        calls = 20 * 32
        start = time.perf_counter()
        for _ in range(20):
            for k in range(32):
                call(k)
        yield f"{name}_us", calls, time.perf_counter() - start


def main() -> None:
    request = json.load(sys.stdin)
    kernels = [kernel_seconds()]

    def normalised(raw: float) -> float:
        kernels.append(kernel_seconds())
        return raw / ((kernels[-2] + kernels[-1]) / 2.0) * NOMINAL_KERNEL_S

    start = time.perf_counter()
    import isowrist.cli

    import_raw = time.perf_counter() - start
    import_s = normalised(import_raw)
    src = os.path.join(request["root"], "src", "isowrist")
    if os.path.dirname(os.path.abspath(isowrist.cli.__file__)) != os.path.abspath(src):
        raise RuntimeError(f"imported isowrist from {isowrist.cli.__file__}, not from {src}")

    tracer = Tracer() if request.get("trace") else None
    if tracer is not None:
        install(tracer)
    commands = []
    for args in request["commands"]:
        first_span = len(tracer.spans) if tracer is not None else 0
        output, code, raw = run_command(isowrist.cli.main, args)
        record = {"args": args, "output": output, "code": code, "raw_s": raw, "s": normalised(raw)}
        if tracer is not None:
            record["spans"] = [first_span, len(tracer.spans)]
        commands.append(record)

    probe = []
    if request.get("probe"):
        for name, calls, raw in probe_batches():
            probe.append({"name": name, "calls": calls, "raw_s": raw, "s": normalised(raw)})

    result = {
        "import_s": import_s,
        "import_raw_s": import_raw,
        "kernels_s": kernels,
        "commands": commands,
        "probe": probe,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["notes"] = tracer.notes
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
