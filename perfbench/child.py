"""One benchmark sample, in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``{"ops": [argv, ...], "trace": bool, "spawned": t}``,
where ``t`` is the parent's ``time.monotonic()`` just before it started
this process.  The child imports ``walkforge.cli`` from the checkout's
``src/`` (the time until then is ``setup_s``), makes the CLI calls one
after another, and writes ``result.json`` beside SPEC_JSON.

Every call goes through ``walkforge.cli.main(argv)``.  In a traced
sample the public functions ``cli.main`` reaches are wrapped at run time,
before the first call, so that each call records a span and the counts
read from its arguments and result; the program's sources are not
instrumented.
"""

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import walkforge.cli  # noqa: E402  (the import is what setup_s measures)

READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

from walkforge import io, targets  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """Spans kept in memory: name, start, end, parent, wall and CPU time."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        cpu0 = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_s"] = time.process_time() - cpu0
            rec["wall_s"] = rec["end"] - rec["start"]
            self._stack.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)


class ThreadPeak:
    """Most threads alive at once while the block runs, less the caller's."""

    INTERVAL_S = 0.002

    def __init__(self):
        self.peak = 0

    def _poll(self):
        while not self._stop.wait(self.INTERVAL_S):
            self.peak = max(self.peak, threading.active_count())

    def __enter__(self):
        self.base = threading.active_count()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @property
    def workers(self) -> int:
        # The poller is one extra thread; the caller works when no pool runs.
        return max(1, self.peak - self.base - 1)


def _sites(field) -> int:
    return sum(len(s) for s in field.slices)


def _feasibility_counts(counts, report, *_):
    counts["feasibility.undefined_sites"] = len(report.undefined_sites)
    counts["feasibility.boundary_sites"] = len(report.boundary_sites)


def _defined_frac(counts, schedule, *_):
    defined = sum(int(d.sum()) for d in schedule.defined_slices)
    total = sum(len(d) for d in schedule.defined_slices)
    counts["synthesis.defined_frac"] = defined / total


def _sites_of_result(counts, field, *_):
    counts["lattice.sites"] = _sites(field)


def _sites_of_first_arg(counts, _, field, *__):
    counts["lattice.sites"] = _sites(field)


# The public functions cli.main reaches, by the module whose namespace it
# finds them in: ``cli`` imports most of them by name, calls ``io.*`` as
# module attributes, and TargetSpec.realize looks up ``load_target`` among
# the globals of ``targets``.  Each maps to a function
# ``(counts, result, *args)`` that records counts from one call, or None.
TRACED = {
    walkforge.cli: {
        "validate_sequence": _feasibility_counts,
        "reconstruct_wavefield": None,
        "synthesize_coins": _defined_frac,
        "synthesize_jumps": _defined_frac,
        "evolve_qw": None,
        "evolve_rw_exact": None,
        "evolve_qw_complex": None,
        "closed_form_wavefield": None,
        "probability_from_wavefield": None,
    },
    io: {
        "write_schedule_json": None,
        "read_schedule_json": None,
        "write_field_json": _sites_of_first_arg,
        "write_mc_csv": _sites_of_first_arg,
    },
    targets: {"load_target": _sites_of_result},
}


def span_name(fn) -> str:
    """``layer.function``, the layer being the module that defines it."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


def traced(tracer, fn, record):
    def wrapper(*args, **kwargs):
        with tracer.span(span_name(fn)):
            result = fn(*args, **kwargs)
        if record is not None:
            record(tracer.counts, result, *args)
        return result
    return wrapper


def traced_simulate_rw(tracer, fn):
    """simulate_rw with its memory above entry and its worker threads."""
    def wrapper(schedule, cfg):
        rss0 = current_rss_mb()
        with tracer.span(span_name(fn)), ThreadPeak() as threads:
            result = fn(schedule, cfg)
        tracer.counts["evolve.simulate_rw.rss_mb"] = peak_rss_mb() - rss0
        tracer.counts["evolve.mc_threads"] = threads.workers
        tracer.counts["evolve.mc_trajectory_steps"] = (
            tracer.counts.get("evolve.mc_trajectory_steps", 0)
            + cfg.trajectories * cfg.horizon)
        return result
    return wrapper


def instrument(tracer) -> None:
    """Put a span around each public call cli.main makes; the sources are
    not changed, only the names the calls are looked up by."""
    for module, names in TRACED.items():
        for name, record in names.items():
            setattr(module, name, traced(tracer, getattr(module, name),
                                         record))
    walkforge.cli.simulate_rw = traced_simulate_rw(
        tracer, walkforge.cli.simulate_rw)


def run_op(i, argv, tracer):
    """Exit code of one CLI call and the error it raised, if any."""
    span = (contextlib.nullcontext() if tracer is None
            else tracer.span("cli.main", op=i, command=argv[0]))
    try:
        with span:
            return walkforge.cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), "SystemExit"
    except Exception:  # recorded and counted as a failed operation
        return 3, traceback.format_exc()


def main(spec_path: Path) -> int:
    where = Path(walkforge.cli.__file__).resolve()
    if not where.is_relative_to(ROOT):
        print(f"walkforge imported from {where}, outside {ROOT}",
              file=sys.stderr)
        return 3
    spec = json.loads(spec_path.read_text())
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        instrument(tracer)
    codes, errors = [], []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        for i, argv in enumerate(spec["ops"]):
            code, err = run_op(i, argv, tracer)
            codes.append(code)
            errors.append(err)
        wall = time.perf_counter() - start
    result = {
        "setup_s": READY - spec["spawned"],
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "codes": codes,
        "errors": errors,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    (spec_path.parent / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
