"""Benchmark for sfh: one closed-loop client over seeded diagram workloads.

    python3 perfbench/run.py --workload spheres --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports ``sfh`` from the
checkout's ``src/`` and refuses to run (exit 2) without it.

One operation starts from ``.shd`` text and ends with a checked answer.  For
``spheres``, ``lens`` and ``unions`` that is ``sfh.parse`` then ``sfh.sfh``;
for ``corpus`` it is one in-process ``sfh.cli.main(["compute", FILE,
"--format", "tsv"])`` call, whose exit code and table are checked.  A single
client submits one operation at a time and the next only when the previous
one returns; no threads or processes are started.

The run is a whole number of rounds (see ``workloads.py``): rounds start
until the operations have taken ``--seconds`` in total.  Set-up (importing
``sfh`` from scratch and generating the first round's texts) is repeated
nine times and its median reported; later rounds are generated untimed.

With ``--trace 0`` every round runs untraced and the end-to-end metrics are
printed.  With ``--trace 1`` round 1 runs with every public function of the
sfh modules wrapped in a span recorder (``tracing.py``) and the other rounds
run untraced for comparison.  The per-layer metrics are totals over that one
traced round, a fixed mix of cases, so they compare across commits; the
tracing overhead is the traced round's median operation time minus the
untraced rounds'.  The spans are written to
``.bench_out/spans-<workload>.jsonl`` in the checkout.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import tracing
import workloads

SETUP_REPEATS = 9
CALIBRATE_EVERY_S = 0.05
# ten times the slowest operation of any round; a run stays under 180 s
OP_DEADLINE_S = 10
CLI_WORKLOADS = {"corpus"}


# -- metric definitions ------------------------------------------------------

END_TO_END = {
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "diagrams_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ratlp.maximize.calls": "count",
    "ratlp.minimize.calls": "count",
    "ratlp.self_s": "s",
    "domains.positive_connecting_domains.calls": "count",
    "domains.positive_connecting_domains.domains": "count",
    "domains.positive_connecting_domains.hit_ratio": "ratio",
    "domains.positive_connecting_domains.self_s": "s",
    "domains.admissibility.calls": "count",
    "domains.admissibility.per_diagram": "count",
    "domains.defect_system.calls": "count",
    "domains.periodic_basis.calls": "count",
    "domains.connecting_domain.calls": "count",
    "intlinalg.smith_normal_form.calls": "count",
    "intlinalg.smith_normal_form.self_s": "s",
    "intlinalg.smith_normal_form.self_share": "ratio",
    "intlinalg.smith_normal_form.cells": "count",
    "intlinalg.solve.calls": "count",
    "intlinalg.kernel_basis.calls": "count",
    "spinc.spinc_partition.self_s": "s",
    "spinc.spinc_partition.classes": "count",
    "spinc.maslov_index.calls": "count",
    "spinc.maslov_index.index1": "count",
    "spinc.relative_gradings.self_s": "s",
    "spinc.grading_modulus.calls": "count",
    "homology.boundary_matrix.self_s": "s",
    "homology.boundary_matrix.wall_share": "ratio",
    "homology.boundary_matrix.nonzeros": "count",
    "homology.class_homology.calls": "count",
    "homology.class_homology.wall_s": "s",
    "homology.verify_d_squared.self_s": "s",
    "homology.niceness_report.calls": "count",
    "shd.parse.self_s": "s",
    "shd.serialize.calls": "count",
    "diagram.Diagram.validate.calls": "count",
    "diagram.Diagram.validate.self_s": "s",
    "diagram.balance_report.calls": "count",
    "diagram.enumerate_generators.generators": "count",
    "cli.main.self_s": "s",
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.solve_s_p50": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: tracing.Tracer, traced: list[float],
                      untraced: list[float]) -> dict[str, float]:
    s = tracer.summary()
    ops = len(traced)
    # span times are as measured, so shares divide by measured op time
    op_seconds = s[f"{tracing.ROOT}.wall_s"]
    pcd = "domains.positive_connecting_domains"
    values = dict(s)
    values.update({
        f"{pcd}.hit_ratio": _ratio(s[f"{pcd}.hits"], s[f"{pcd}.calls"]),
        "domains.admissibility.per_diagram":
            _ratio(s["domains.admissibility.calls"], ops),
        "intlinalg.smith_normal_form.self_share":
            _ratio(s["intlinalg.smith_normal_form.self_s"], op_seconds),
        "homology.boundary_matrix.wall_share":
            _ratio(s["homology.boundary_matrix.wall_s"], op_seconds),
        "trace.ops": ops,
        "trace.spans": len(tracer.spans),
        "trace.solve_s_p50": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.overhead_share": _ratio(statistics.median(traced),
                                       statistics.median(untraced)) - 1,
    })
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def tail(durations: list[float], workload: str) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it) for the workload's tail
    percentile, lowered if a short run leaves fewer than ten beyond."""
    pct = workloads.TAIL_PERCENTILE[workload]
    n = len(durations)
    if n < 2:
        return 50, durations[0], 0
    while pct > 50 and n * (100 - pct) / 100 < 10:
        pct -= 1
    value = statistics.quantiles(durations, n=100)[pct - 1]
    return pct, value, sum(1 for d in durations if d > value)


def exact_count_check(tracer: tracing.Tracer, workload: str,
                      traced_ops: list[workloads.Op]) -> str:
    """Compare traced call counts with the counts the algorithm implies:
    G(G-1) domain searches for spheres(n), G = 2^(n-1), and p(p-1)/2
    connecting-domain solves for the Spin^c partition of torus_lens(p) or
    lens_knot(p)."""
    cases = workloads.WORKLOADS[workload]
    if workload == "spheres":
        name = "domains.positive_connecting_domains"
        expect = lambda n: 2 ** (n - 1) * (2 ** (n - 1) - 1)  # noqa: E731
    elif workload == "lens":
        name = "domains.connecting_domain"
        expect = lambda p: p * (p - 1) // 2  # noqa: E731
    else:
        return "n/a"
    want = {op.key: expect(cases[op.case_index].parts[0][1][0]) for op in traced_ops}
    got = tracer.calls_per_op(name)
    bad = [k for k, v in want.items() if got.get(k, 0) != v]
    return (f"pass ({name}.calls exact on {len(want)} ops)" if not bad
            else f"FAIL on {len(bad)} of {len(want)} ops, e.g. {bad[0]}: "
                 f"{got.get(bad[0], 0)} != {want[bad[0]]}")


# -- set-up and operations ---------------------------------------------------


class SetupError(RuntimeError):
    pass


def _setup(workload: str, seed: int, src: Path):
    """Import sfh from scratch and generate round 0, SETUP_REPEATS times.
    Returns the median time, rescaled to the reference host speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "sfh" or m.startswith("sfh.")]:
            del sys.modules[name]
        before = calibrate.kernel_seconds()
        t0 = perf_counter()
        api = importlib.import_module("sfh")
        cli = importlib.import_module("sfh.cli")
        ops = workloads.make_round(workload, seed, 0)
        dt = perf_counter() - t0
        after = calibrate.kernel_seconds()
        times.append(dt * 2 * calibrate.REFERENCE_S / (before + after))
        if Path(api.__file__).resolve().parent.parent != src.resolve():
            raise SetupError(f"imported sfh from {api.__file__}, not from {src}")
    return statistics.median(times), api, cli, ops


def _run_api(api, op: workloads.Op):
    return api.sfh(api.parse(op.text))


def _check_api(result) -> tuple[int, str]:
    return 0, workloads.signature([(c.modulus, c.ranks) for c in result.classes])


def _run_cli(cli, path: Path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["compute", str(path), "--format", "tsv"])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _check_cli(raw) -> tuple[int, str]:
    code, table = raw
    return code, workloads.tsv_signature(table) if code == 0 else ""


class OperationTimeout(BaseException):
    """Raised inside an operation that runs past OP_DEADLINE_S.  A
    BaseException, so that no handler in the program under test catches it."""


def _deadline(signum, frame):
    raise OperationTimeout(f"no answer after {OP_DEADLINE_S} s")


class Loop:
    """The closed loop: runs operations one at a time and checks each.

    Between operations, at most every CALIBRATE_EVERY_S, it times the
    reference kernel; ``durations`` rescales each operation by the mean of
    the kernel timings just before and just after it."""

    def __init__(self, workload, api, cli, work_dir: Path):
        self.workload = workload
        self.api, self.cli = api, cli
        self.path = work_dir / f"op-{id(self):x}.shd"
        self.attempted = self.failed = 0
        self.raw = {False: [], True: []}          # measured seconds, by traced
        self.kernel_before = {False: [], True: []}
        self.kernels: list[float] = []
        self._next_kernel = 0.0
        self.outcomes: dict[tuple[int, bool], set] = {}
        self.errors: list[str] = []

    def calibrate(self) -> None:
        self.kernels.append(calibrate.kernel_seconds())
        self._next_kernel = perf_counter() + CALIBRATE_EVERY_S

    def durations(self, traced: bool) -> list[float]:
        """Operation seconds at the reference host speed.  Call
        ``calibrate`` once after the last operation first."""
        k = self.kernels
        return [dt * 2 * calibrate.REFERENCE_S / (k[j] + k[j + 1])
                for dt, j in zip(self.raw[traced], self.kernel_before[traced])]

    def run_round(self, ops, tracer: tracing.Tracer | None) -> float:
        gc.collect()
        signal.signal(signal.SIGALRM, _deadline)
        busy = 0.0
        cli_mode = self.workload in CLI_WORKLOADS
        for op in ops:
            if cli_mode:
                self.path.write_text(op.text, encoding="utf-8")
            if perf_counter() >= self._next_kernel:
                self.calibrate()
            raw = exc = None
            signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
            if tracer:
                tracer.begin(op.key)
            else:
                t0 = perf_counter()
            try:
                raw = _run_cli(self.cli, self.path) if cli_mode else _run_api(self.api, op)
            except (Exception, OperationTimeout) as e:  # any of them fails the op
                exc = e
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                dt = tracer.end() if tracer else perf_counter() - t0
            self._record(op, raw, exc, dt, tracer is not None, cli_mode)
            busy += dt
        return busy

    def _record(self, op, raw, exc, dt, traced, cli_mode):
        self.attempted += 1
        self.raw[traced].append(dt)
        self.kernel_before[traced].append(len(self.kernels) - 1)
        if exc is not None:
            outcome = ("exception", f"{type(exc).__name__}: {exc}")
        else:
            outcome = _check_cli(raw) if cli_mode else _check_api(raw)
        self.outcomes.setdefault((op.case_index, traced), set()).add(outcome)
        if outcome != (op.expected_exit, op.expected):
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.label} [{op.key}]: got {outcome}, want "
                                   f"{(op.expected_exit, op.expected)}")

    def mismatched_modes(self) -> list[int]:
        """Cases whose traced and untraced outcomes differ."""
        return sorted(ci for (ci, traced), got in self.outcomes.items()
                      if traced and (ci, False) in self.outcomes
                      and got != self.outcomes[(ci, False)])


# -- main ----------------------------------------------------------------------


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "sfh" / "__init__.py").is_file():
        print(f"run.py: no sfh package under {src}; run inside a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        setup_s, api, cli, first = _setup(args.workload, args.seed, src)
    except SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    work_dir = root / ".bench_out"
    work_dir.mkdir(exist_ok=True)
    loop = Loop(args.workload, api, cli, work_dir)
    tracer = tracing.Tracer() if args.trace else None
    traced_ops: list[workloads.Op] = []
    busy, rounds = 0.0, 0
    try:
        # a traced run traces round 1 only, so its per-layer totals cover a
        # fixed mix of cases; the other rounds are the untraced comparison
        while busy < args.seconds or (tracer and rounds < 2):
            ops = first if rounds == 0 else workloads.make_round(
                args.workload, args.seed, rounds)
            traced = tracer is not None and rounds == 1
            if traced:
                tracer.install()
                traced_ops += ops
            try:
                busy += loop.run_round(ops, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            rounds += 1
        loop.calibrate()
    finally:
        loop.path.unlink(missing_ok=True)

    untraced = loop.durations(False)
    failed_share = loop.failed / loop.attempted
    correct = loop.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {rounds}  ops {loop.attempted}  busy {busy:.3f} s")
    print(f"failed_share {failed_share:.6g} ({loop.failed}/{loop.attempted})")
    for line in loop.errors:
        print(f"  failed: {line}")
    print(f"host speed {calibrate.REFERENCE_S / statistics.median(loop.kernels):.4g}x "
          f"reference ({len(loop.kernels)} kernel timings); unscaled median "
          f"operation {statistics.median(loop.raw[False]):.6g} s")

    if tracer is None:
        pct, tail_value, beyond = tail(untraced, args.workload)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "solve_s_p50": statistics.median(untraced),
            "solve_s_tail": tail_value,
            "diagrams_per_s": len(untraced) / sum(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": rss_kib / 1024,
        }
        units = END_TO_END
        notes = {"solve_s_tail": f"(p{pct} of {len(untraced)} ops, {beyond} beyond)"}
    else:
        mismatched = loop.mismatched_modes()
        if mismatched:
            correct = False
            print(f"traced and untraced outcomes differ on cases {mismatched}")
        else:
            print("traced and untraced outcomes agree")
        print("exact-count self-check: "
              + exact_count_check(tracer, args.workload, traced_ops))
        metrics = per_layer_metrics(tracer, loop.durations(True), untraced)
        units = PER_LAYER
        notes = {}
        spans_path = work_dir / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(root)}")

    for name, value in metrics.items():
        assert math.isfinite(value), name
        print(f"{name:<48} {value:.6g} {units[name]} {notes.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
