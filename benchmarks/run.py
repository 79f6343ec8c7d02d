"""Benchmark of the computus package: one workload, one seed, one result.

    python3 benchmarks/run.py --workload point-queries --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
named in BENCHMARK.json, measured with tracing off; with ``--trace 1`` they
are the per-layer ones, from a separate run that records spans around the
calls into each layer and also reports the tracing overhead.  Lines before
the last one show every figure by name with its unit, the workload-specific
figures that are not end-to-end metrics of every workload (such as
``request_ms.p99``), and the run's metadata.

``--profile`` instead runs the workload under cProfile for ``--seconds`` and
prints the functions with the most self time; it prints no result line.
``--out FILE`` also writes the whole result, metadata included, as JSON.
"""

from __future__ import annotations

import argparse
import ast
import cProfile
import dataclasses
import gc
import itertools
import json
import math
import os
import platform
import pstats
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import PRODUCT_CALLS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
# Latencies kept per run, in ms; allocated in full before timing starts, so
# that the benchmark's own memory does not grow with the program's speed.
LATENCY_SAMPLES = 2_000_000
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 60
# Inputs the traced run borrows from the other workloads, so that every
# per-layer metric has a value on every workload.
PROBES = {
    "point-queries": lambda seed: inputs.point_queries(seed)[:200],
    "year-tables": lambda seed: inputs.year_tables(seed)[:48],
    "sweep-low": lambda seed: inputs.sweep_low(seed)[:1],
}
CALL_COUNTED = (
    "core.epact",
    "core.moon_age",
    "tables.pronounced_age",
    "tables.corrected_age",
    "tables.easter_date",
    "tables.martyrology_letter",
    "recurrence.jump",
    "cli.main.text",
    "cli.main.csv",
    "cli.main.json",
    "verify.verify_range",
)
# Units of the figures printed beside the declared metrics.
EXTRA_UNITS = {
    "request_ms.p99": "ms",
    "median_work_per_s": "1/s",
    "all_request_ms.p50": "ms",
    "queries_per_s": "1/s",
    "tables_per_s": "1/s",
    "sweep_s": "s",
    "requests": "count",
    "segments": "count",
    "timed_s": "s",
    "failed_ratio": "ratio",
    "rss_growth_mb": "MB",
    "recurrence.walk_share": "ratio",
    "verify.sweep_tables_s": "s",
    "trace.layer_share": "ratio",
    "trace.passes": "count",
}
# The workload-specific names of the end-to-end figures.
ALIASES = {
    "point-queries": {"queries_per_s": ("work_per_s", 1)},
    "year-tables": {"tables_per_s": ("work_per_s", 1)},
    "sweep-low": {"sweep_s": ("request_ms.p50", 1e-3)},
    "sweep-deep": {"sweep_s": ("request_ms.p50", 1e-3)},
}


def fail(message: str, code: int = 2) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


# -- the program under test -------------------------------------------------


def import_program():
    if not (SRC / "computus" / "__init__.py").is_file():
        fail(f"no computus source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import computus

    if Path(computus.__file__).resolve().parent != SRC / "computus":
        fail(f"imported computus from {computus.__file__}, not from {SRC}")
    from workloads import functions

    return functions()


def _child_timeout(signum, frame):
    raise TimeoutError("child interpreter ran too long")


def run_child(args: list[str], stderr=subprocess.DEVNULL) -> tuple[float, str]:
    """Wall time of one fresh interpreter, and its standard error.

    The wait blocks in waitpid: ``subprocess.run(timeout=...)`` would poll
    with sleeps of up to 50 ms and round the time up.  An alarm bounds it.
    """
    previous = signal.signal(signal.SIGALRM, _child_timeout)
    start = perf_counter()
    child = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=stderr,
        text=True,
    )
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        err = child.stderr.read() if child.stderr else ""
        code = child.wait()
        elapsed = perf_counter() - start
    except TimeoutError:
        child.kill()
        child.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if child.stderr:
            child.stderr.close()
    if code != 0:
        fail(f"child {' '.join(args)[:80]!r} exited {code}", 1)
    return elapsed, err


def setup_times(workload, first_item, repeats: int) -> list[float]:
    """Times for fresh interpreters to import what the workload uses and
    finish its first request."""
    code, argv = workload.setup(first_item)
    return [run_child(["-c", code, *argv])[0] for _ in range(repeats)]


# -- untraced closed loop ---------------------------------------------------


def call(request, item):
    try:
        return request(item)
    except Exception as exc:  # a raising request is a failed operation
        return exc


def check_outputs(workload, items, outputs) -> list[str | None]:
    reasons = []
    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            reasons.append(f"{item!r} raised {out!r}")
        else:
            reasons.append(workload.check(item, out))
    return reasons


def closed_loop(workload, request, batch, seconds, latencies):
    """Send requests one after another, over fresh batches of inputs, until
    ``seconds`` have passed.  A batch is generated before its requests and
    timed in segments of ``workload.segment`` requests, each checked after
    it is timed, so neither generation nor checks are in the times.  Returns
    the (units, ns) of each segment, the request count, the latencies in ms
    of the first ``len(latencies)`` requests, the failed requests and why."""
    segments = []
    attempted = failed = 0
    problems = []
    deadline = perf_counter() + seconds
    for index in itertools.count():
        items = batch(index)
        for first in range(0, len(items), workload.segment):
            chunk = items[first : first + workload.segment]
            outputs = []
            start = perf_counter_ns()
            for item in chunk:
                t0 = perf_counter_ns()
                outputs.append(call(request, item))
                t1 = perf_counter_ns()
                if attempted < len(latencies):
                    latencies[attempted] = (t1 - t0) / 1e6
                attempted += 1
            segments.append((sum(map(workload.units, chunk)), perf_counter_ns() - start, len(chunk)))
            reasons = [r for r in check_outputs(workload, chunk, outputs) if r]
            failed += len(reasons)
            problems += reasons[: 10 - len(problems)]
            if perf_counter() >= deadline:
                del latencies[attempted:]
                return segments, attempted, failed, problems


def deciles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10) if len(values) > 1 else values * 9


def untraced_run(workload, seed, seconds, api):
    """The end-to-end figures.  Every request gets a new input of the
    seeded stream and is timed once.  The figures that BENCHMARK.json bounds
    are taken at the slowest tenth of the run's segments: ``work_per_s`` is
    the 10th percentile of the segments' units over wall time, and
    ``request_ms.p50`` the 90th percentile of the segments' median latency.
    A shared machine switches for seconds at a time between a fast and a
    slow speed about 1.5 times apart, and runs differ mainly in how much of
    each they get; the slow speed is in nearly every run and repeats, so the
    slow tenth repeats too, where a median over the run follows the mix.
    The median over segments and over all requests are printed beside them,
    and ``request_ms.p99`` is over all requests."""
    generate = inputs.GENERATORS[workload.name]
    request = workload.request(api)
    for item in generate(seed, -1)[: workload.warmup]:
        call(request, item)
    latencies = array("f", [0.0]) * LATENCY_SAMPLES
    gc.collect()
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    segments, attempted, failed, problems = closed_loop(
        workload, request, lambda index: generate(seed, index), seconds, latencies
    )
    # Read before the latencies are sorted into a list of floats.
    rss_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ms = sorted(latencies)
    speeds = [units / (ns / 1e9) for units, ns, _ in segments]
    segment_p50 = []
    first = 0
    for _, _, count in segments:
        if first + count <= len(latencies):
            segment_p50.append(statistics.median(latencies[first : first + count]))
        first += count
    figures = {
        "peak_rss_mb": rss_peak / 1024,
        "rss_growth_mb": (rss_peak - rss_before) / 1024,
        "work_per_s": deciles(speeds)[0],
        "request_ms.p50": deciles(segment_p50)[-1],
        "median_work_per_s": statistics.median(speeds),
        "all_request_ms.p50": statistics.median(ms),
        "requests": attempted,
        "segments": len(segments),
        "timed_s": sum(ns for _, ns, _ in segments) / 1e9,
        "failed_ratio": failed / attempted,
    }
    if len(ms) >= 1000:  # so that at least ten samples lie beyond p99
        figures["request_ms.p99"] = ms[math.ceil(0.99 * len(ms)) - 1]
    for alias, (name, scale) in ALIASES[workload.name].items():
        figures[alias] = figures[name] * scale
    return figures, attempted, failed, problems


# -- traced run -------------------------------------------------------------


def traced_api(api, tracer):
    return {name: fn if name == "mode" else tracer.wrap(name, fn) for name, fn in api.items()}


def traced_pass(workload, items, tracer, api, tag):
    """Run each item as one request under a root span tagged ``tag:index``."""
    request = workload.request(traced_api(api, tracer))
    outputs = []
    for index, item in enumerate(items):
        tracer.request = f"{tag}:{index}"
        outputs.append(call(lambda it: tracer.call("request", request, it), item))
    return outputs


def decompose(workload, items, tracer, api, tag) -> list[dict]:
    parts = []
    if workload.decompose is None:
        return parts
    wrapped = traced_api(api, tracer)
    for index, item in enumerate(items):
        tracer.request = f"{tag}:{index}"
        result = workload.decompose(wrapped, api, item)
        if result is not None:
            parts.append(result)
    return parts


def traced_run(workload, items, seconds, seed, api):
    """Trace one pass over the first inputs, which the program has not seen
    before; then alternate untraced and traced passes over them for
    ``seconds`` to measure the tracing overhead.  Add the layer
    decomposition of the first pass's requests and the probes, and derive
    the per-layer figures."""
    batch = items[: workload.trace_requests]
    request = workload.request(api)
    for item in inputs.GENERATORS[workload.name](seed, -1)[: workload.warmup]:
        call(request, item)
    gc.collect()
    tracer = Tracer()
    run_outputs = traced_pass(workload, batch, tracer, api, "run")
    ratios = []
    start = perf_counter()
    while not ratios or perf_counter() - start < seconds:
        gc.collect()
        t0 = perf_counter_ns()
        for item in batch:
            call(request, item)
        untraced = perf_counter_ns() - t0
        t0 = perf_counter_ns()
        traced_pass(workload, batch, Tracer(), api, "run")
        ratios.append((perf_counter_ns() - t0) / untraced)

    sources = {"run": (workload, batch, run_outputs)}
    parts = {"run": decompose(workload, batch, tracer, api, "run")}
    for name, probe in PROBES.items():
        if name == workload.name or (name == "sweep-low" and workload.name == "sweep-deep"):
            continue
        tag = f"probe-{name}"
        probe_items = probe(seed)
        outputs = traced_pass(WORKLOADS[name], probe_items, tracer, api, tag)
        sources[tag] = (WORKLOADS[name], probe_items, outputs)
        parts[tag] = decompose(WORKLOADS[name], probe_items, tracer, api, tag)

    attempted = failed = 0
    problems = []
    for w, its, outs in sources.values():
        reasons = check_outputs(w, its, outs)
        attempted += len(reasons)
        failed += sum(r is not None for r in reasons)
        problems += [r for r in reasons if r]

    layers = layer_figures(tracer, sources, parts)
    layers["figures"]["trace.overhead_pct"] = 100 * (statistics.median(ratios) - 1)
    layers["figures"]["trace.passes"] = len(ratios)
    return layers, tracer, attempted, failed, problems


TIMED_CALLS = (
    "core.epact", "core.moon_age", "tables.pronounced_age", "tables.corrected_age",
    "tables.easter_date", "tables.martyrology_letter", "recurrence.jump",
    "tables.year_ages", "tables.year_table", "tables.transition_table",
    "tables.new_moon_dates", "tables.as_dict",
    "cli.main.text", "cli.main.csv", "cli.main.json",
)  # fmt: skip


def layer_figures(tracer, sources, parts) -> dict:
    """Per-layer figures from the spans.  Each is taken from the workload's
    own requests ("run") when they make that call, else from a probe; the
    ``origin`` map names the source of each figure."""
    by_source = {tag: tracer.by_name(lambda r, t=tag: r.split(":")[0] == t) for tag in sources}

    def first_source(name):
        return next(tag for tag, groups in by_source.items() if groups.get(name))

    figures, origin = {}, {}
    for name in TIMED_CALLS:
        tag = first_source(name)
        figures[f"{name}.us"] = statistics.fmean(by_source[tag][name]) / 1e3
        origin[f"{name}.us"] = tag

    tag = first_source("cli.main.text")
    groups = by_source[tag]
    main_total = sum(sum(groups[f"cli.main.{fmt}"]) for fmt in ("text", "csv", "json"))
    product_total = sum(sum(groups[name]) for name in PRODUCT_CALLS.values())
    figures["cli.render_share"] = 1 - product_total / main_total
    origin["cli.render_share"] = tag

    tag = first_source("verify.verify_range")
    reports = [out for out in sources[tag][2] if not isinstance(out, Exception)]
    # The fastest side-by-side runs of the sweep, the walk and the tables
    # loop on the source's one span.
    part = parts[tag][0]
    verify_s, walk_s, tables_s = (part[k] / 1e9 for k in ("verify_ns", "walk_ns", "tables_ns"))
    # An estimate: the walk and the tables calls are timed outside the sweep.
    other_s = verify_s - walk_s - tables_s
    if other_s < 0:
        print(f"WARNING: verify.other_s estimate {other_s:.6f} s is negative; reported as 0")
    sweep = {
        "verify.verify_range.s": verify_s,
        "recurrence.walk_s": walk_s,
        "recurrence.walk_steps": part["walk_steps"],
        "recurrence.walk_share": walk_s / verify_s,
        "verify.sweep_tables_s": tables_s,
        "verify.other_s": max(other_s, 0.0),
        "verify.years_checked": sum(max(c.years_checked for c in r.checks) for r in reports),
        "verify.checks_failed": sum(len(r.failures) for r in reports),
    }
    figures.update(sweep)
    origin.update(dict.fromkeys(sweep, tag))

    # Direct layer calls of the workload's own traced requests.
    roots = {i for i, s in enumerate(tracer.spans) if s[0] == "request" and s[4].startswith("run:")}
    request_ns = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots)
    own = tracer.self_times()
    counts = dict.fromkeys(CALL_COUNTED, 0)
    split: dict[str, float] = {}
    for (name, _, _, parent, _), ns in zip(tracer.spans, own):
        if parent in roots:
            counts[name] += 1
            split[name] = split.get(name, 0) + ns / request_ns
    figures.update({f"calls.{name}": c for name, c in counts.items()})
    figures["trace.layer_share"] = sum(split.values())
    return {"figures": figures, "origin": origin, "split": split}


# -- interpreter and import costs -------------------------------------------


def parse_importtime(stderr: str) -> list[tuple[str, int, int, int]]:
    """(module, depth, self us, cumulative us) per ``-X importtime`` line."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, field = line[len("import time:") :].split("|")
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        entries.append((name, depth, int(own), int(cumulative)))
    return entries


def computus_import_ms(entries) -> dict[str, float]:
    """Import time of each computus module, counting its own code and the
    modules it pulled in first, but not other computus modules."""
    last_site = max(i for i, e in enumerate(entries) if e[0] == "site" and e[1] == 0)
    statement = entries[last_site + 1 :]
    owner_at_depth: dict[int, str | None] = {}
    totals: dict[str, int] = {}
    for name, depth, own, _ in reversed(statement):
        owner = name if name.startswith("computus") else owner_at_depth.get(depth - 1)
        owner_at_depth[depth] = owner
        if owner:
            totals[owner] = totals.get(owner, 0) + own
    result = {
        f"import.computus.{m}_ms": totals.get(f"computus.{m}", 0) / 1e3
        for m in ("core", "recurrence", "tables", "verify", "cli")
    }
    result["import.total_ms"] = sum(e[3] for e in statement if e[1] == 0) / 1e3
    return result


def source_imports() -> set[str]:
    names = set()
    for path in sorted((SRC / "computus").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
    return names


def interpreter_figures() -> tuple[dict, dict]:
    """Bare interpreter start and per-module import times, each the median
    of fresh interpreters started one at a time."""
    run_child(["-c", "pass"])
    bare = statistics.median(run_child(["-c", "pass"])[0] for _ in range(IMPORT_REPEATS))

    def importtime(code):
        return parse_importtime(run_child(["-X", "importtime", "-c", code], subprocess.PIPE)[1])

    bare_modules = {e[0] for e in importtime("pass")}
    samples = [computus_import_ms(importtime("import computus.cli")) for _ in range(IMPORT_REPEATS)]
    figures = {"interp.bare_ms": bare * 1e3, "interp.bare_modules": len(bare_modules)}
    figures.update({k: statistics.median(s[k] for s in samples) for k in samples[0]})
    masked = sorted(source_imports() & bare_modules)
    figures["import.masked_modules"] = len(masked)
    return figures, {"bare_modules": sorted(bare_modules), "masked_by_site": masked}


# -- metadata and output ----------------------------------------------------


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_lines": sum(
            len(p.read_text("utf-8").splitlines()) for p in (SRC / "computus").glob("*.py")
        ),
    }


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        return json.load(spec)


def select(figures: dict, declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in figures]
    if missing:
        fail(f"no value for declared metrics {missing}", 1)
    return {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in declared}


def show(figures: dict, units: dict, origin: dict | None = None) -> None:
    for name, value in figures.items():
        where = f"  [{origin[name]}]" if origin and name in origin else ""
        print(f"{name:36} {value:>14.6g} {units.get(name, '')}{where}")


def profile(workload, seed, seconds, api) -> None:
    """cProfile of one run with the output checks left out."""
    request = workload.request(api)
    generate = inputs.GENERATORS[workload.name]
    unchecked = dataclasses.replace(workload, check=lambda item, out: None)
    profiler = cProfile.Profile()
    profiler.enable()
    closed_loop(unchecked, request, lambda index: generate(seed, index), seconds, array("f"))
    profiler.disable()
    pstats.Stats(profiler, stream=sys.stdout).sort_stats("tottime").print_stats(25)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true", help="cProfile one run instead")
    parser.add_argument("--out", type=Path, help="also write the full result here")
    args = parser.parse_args()

    spec = declared_metrics()
    api = import_program()
    problems = inputs.self_check(args.workload, args.seed)
    if problems:
        fail(f"workload inputs for seed {args.seed}: {'; '.join(problems)}", 1)
    workload = WORKLOADS[args.workload]
    items = inputs.GENERATORS[args.workload](args.seed)
    if args.profile:
        profile(workload, args.seed, args.seconds, api)
        return 0

    meta = metadata(args)
    if args.trace:
        layers, tracer, attempted, failed, problems = traced_run(
            workload, items, args.seconds, args.seed, api
        )
        figures = layers["figures"]
        interp, meta["imports"] = interpreter_figures()
        figures.update(interp)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        declared = spec["per_layer"]
        show(figures, {**EXTRA_UNITS, **{m["name"]: m["unit"] for m in declared}}, layers["origin"])
        print("share of traced request time by layer call:")
        for name, share in sorted(layers["split"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:34} {share:8.3f}")
        record = {"per_layer": figures, "split": layers["split"], "origin": layers["origin"]}
    else:
        # Half the set-up samples before the timed loop and half after, so
        # that one slow spell of a shared machine does not set the median.
        # The first start is not counted: it warms the file cache.
        setup = setup_times(workload, items[0], 1 + SETUP_REPEATS // 2)[1:]
        figures, attempted, failed, problems = untraced_run(workload, args.seed, args.seconds, api)
        setup += setup_times(workload, items[0], SETUP_REPEATS - len(setup))
        figures["setup_s"] = statistics.median(setup)
        declared = spec["end_to_end"]
        show(figures, {**EXTRA_UNITS, **{m["name"]: m["unit"] for m in declared}})
        record = {"end_to_end": figures}
    for problem in problems[:10]:
        print(f"FAILED: {problem}")
    print("meta " + json.dumps({k: v for k, v in meta.items() if k != "imports"}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(figures, declared),
    }
    if args.out:
        args.out.write_text(json.dumps({"meta": meta, **record, "result": result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
