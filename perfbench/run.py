"""The repository benchmark: host time, set-up and memory of figure
sweeps and workload replays, with their simulated results checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig11-alltoall --seed 1 --seconds 35 --trace 0

One process runs one workload as a closed loop with a single client:
cells (one figure point or one trace replay each) run back to back, with
no pool and no threads.  A run makes passes over the workload's cells for
``--seconds`` seconds (at least one whole pass), each pass in an order
drawn from ``--seed``, and clears the process-wide flattened-layout memo
before each pass so every pass starts as a fresh sweep would.

``--trace 0`` prints the end-to-end metrics: per-cell medians of host
time scaled by a fixed reference load timed after each cell (see
``hostspeed``); ``--trace 1`` alternates untraced and traced
whole passes and prints the per-layer metrics, including the tracing
overhead.  Every cell's simulated result is checked against
the checked-in reference; a wrong result, an exception or a deadlock
counts as a failed cell.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Per-cell
records (and, traced, the spans) are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: variables that would change what a cell does or measures: a fault
#: profile injects faults, host profiling instruments the run loop
_ENV_CLEARED = ("REPRO_FAULT_PROFILE", "REPRO_HOST_PROFILE")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cluster_counts(cluster) -> dict:
    """Exact simulated counts of one finished cell."""
    st = cluster.stats()
    metric = cluster.metrics.value
    return {
        "events": cluster.sim.events_processed,
        "descriptors": sum(st["descriptors"]),
        "bytes_injected": sum(st["bytes_injected"]),
        "cpu_busy_us": math.fsum(st["cpu_busy_us"]),
        "eager_sends": int(metric("mpi.eager_sends")),
        "rndv_sends": int(metric("mpi.rndv_sends")),
        "copy_bytes": int(metric("scheme.copy_bytes")),
        "segments": int(metric("scheme.segments")),
        "dt_hits": sum(st["dt_cache_hits"]),
        "dt_misses": sum(st["dt_cache_misses"]),
        "reg_hits": sum(st["reg_cache_hits"]),
        "reg_misses": sum(st["reg_cache_misses"]),
    }


def _run_pass(cells, order, npass, probe, recorder, seen,
              stop_ns=None, reference=None) -> list:
    """Run the cells in ``order``; returns one record per cell run.

    With ``stop_ns`` the pass starts no cell once ``perf_counter_ns()``
    has reached it.  With ``reference`` each record's ``ref_ns`` is the
    time of one reference load run right after the cell."""
    from repro.datatypes.flatten import layout_cache_clear
    from tracing import CELL_SPAN, GC_SPAN, probes

    layout_cache_clear()
    records = []
    with probes(probe, recorder):
        for pos, idx in enumerate(order):
            if stop_ns is not None and perf_counter_ns() >= stop_ns:
                break
            cell = cells[idx]
            call, collect = cell.run, gc.collect
            if recorder is not None:
                call = recorder.span(CELL_SPAN, call)
                collect = recorder.span(GC_SPAN, collect)
            probe.reset()
            error = None
            result = None
            t0 = perf_counter_ns()
            try:
                result = call()
            except Exception:  # a failing cell is counted, not fatal
                error = traceback.format_exc().strip().splitlines()[-1]
                traceback.print_exc(file=sys.stderr)
            t1 = perf_counter_ns()
            setup_end = probe.run_ns if probe.run_ns is not None else t1
            rec = {
                "key": cell.key, "pass": npass, "pos": pos,
                "traced": recorder is not None,
                "wall_ns": t1 - t0, "setup_ns": setup_end - t0, "gc_ns": 0,
                "sim_us": None, "counts": None, "error": error,
                "ref_ns": None,
            }
            if error is None:
                rec["error"] = cell.check(result)
                rec["sim_us"] = cell.sim_us(result)
                rec["counts"] = _cluster_counts(probe.cluster)
                first = seen.setdefault(cell.key, rec["counts"])
                if rec["error"] is None and first != rec["counts"]:
                    rec["error"] = "counts differ from an earlier position"
            # A cell leaves its cluster behind as cyclic garbage (~50k
            # objects).  Collecting it here, and charging the cell for it,
            # keeps that cost off whichever cell the seed runs next and
            # keeps peak RSS from depending on when the collector ran.
            probe.reset()
            result = None
            t2 = perf_counter_ns()
            collect()
            rec["gc_ns"] = perf_counter_ns() - t2
            rec["wall_ns"] += rec["gc_ns"]
            if reference is not None:
                rec["ref_ns"] = reference()
            records.append(rec)
    return records


def _median_pass(records, field, passes) -> float:
    sums = [
        sum(r[field] for r in records if r["pass"] == p) / 1e9 for p in passes
    ]
    return statistics.median(sums)


def _geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def _ratio(hits, total) -> float:
    return hits / total if total else 0.0


def _cell_medians(records: list, field: str) -> dict:
    """``{cell key: median of field over the cell's runs}``, in ns."""
    samples: dict = {}
    for r in records:
        samples.setdefault(r["key"], []).append(r[field])
    return {key: statistics.median(v) for key, v in samples.items()}


def _scaled_medians(records: list, field: str) -> dict:
    """``{cell key: median over the cell's runs of field / ref_ns}``,
    in seconds at the reference host speed."""
    from hostspeed import REFERENCE_S

    samples: dict = {}
    for r in records:
        samples.setdefault(r["key"], []).append(r[field] / r["ref_ns"])
    return {
        key: statistics.median(v) * REFERENCE_S for key, v in samples.items()
    }


def end_to_end(records: list) -> tuple:
    """End-to-end metrics of an untraced run, plus printed notes.

    Each cell runs once per pass, and each run is followed by one run of
    the fixed reference load (``hostspeed``).  Every time is a cell's
    median over its runs of its time divided by the reference's, scaled
    to seconds on a host where the reference takes ``REFERENCE_S``: the
    other tenants' load slows both alike, so the ratio stays put when
    the host's speed swings (README.md, "Statistics").
    """
    wall = _scaled_medians(records, "wall_ns")
    setup = _scaled_medians(records, "setup_ns")
    cell_ms = sorted(v * 1e3 for v in wall.values())
    passes = {r["pass"] for r in records}
    ok = [r["sim_us"] for r in records if r["sim_us"] is not None]
    metrics = {
        "wall_s": (math.fsum(wall.values()), "s"),
        "setup_s": (math.fsum(setup.values()), "s"),
        "cell_ms.p50": (statistics.median(cell_ms), "ms"),
        "cell_ms.tail": (
            statistics.quantiles(cell_ms, n=10, method="inclusive")[-1], "ms"
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    runs = Counter(r["key"] for r in records)
    host_wall = math.fsum(_cell_medians(records, "wall_ns").values()) / 1e9
    reference_ms = statistics.median(r["ref_ns"] for r in records) / 1e6
    notes = [
        f"{len(records)} cell runs over {len(passes)} passes (the last may "
        f"be partial): {len(runs)} cells, {min(runs.values())} to "
        f"{max(runs.values())} runs each",
        f"unscaled wall_s {host_wall!r} (sum of per-cell medians); "
        f"reference load median {reference_ms:.2f} ms",
        f"sim_time_us.geomean {_geomean(ok) if ok else float('nan')!r}",
    ]
    return metrics, notes


def per_layer(records: list, traced: list) -> tuple:
    """Per-layer metrics of a traced run.

    ``traced`` holds ``(pass, SpanRecorder)`` per traced pass.  Times
    are medians over traced passes; counts come from the first traced
    pass and are exact.
    """
    from tracing import layer_times

    untraced_passes = sorted({r["pass"] for r in records if not r["traced"]})
    traced_passes = [p for p, _ in traced]
    times = [layer_times(rec.spans) for _, rec in traced]

    def med(fn):
        return statistics.median(fn(t) for t in times)

    def incl(name):
        return med(lambda t: t["inclusive"].get(name, 0.0))

    first_pass, first = traced[0]
    cells = [r for r in records if r["pass"] == first_pass]
    counted = [r["counts"] for r in cells if r["counts"]]

    def total(key):
        values = [c[key] for c in counted]
        # fsum: exact whatever order the seed put the cells in
        return math.fsum(values) if key == "cpu_busy_us" else sum(values)

    ok = [r["sim_us"] for r in cells if r["sim_us"] is not None]
    run_s = incl("simulator.run")
    events = total("events")
    traced_wall = _median_pass(records, "wall_ns", traced_passes)
    untraced_wall = _median_pass(records, "wall_ns", untraced_passes)
    metrics = {
        "mpi.init_s": (incl("mpi.init"), "s"),
        "mpi.init_recv_wrs": (first.init_recv_wrs, "count"),
        "simulator.run_s": (run_s, "s"),
        "simulator.events": (events, "count"),
        "simulator.ns_per_event": (_ratio(run_s * 1e9, events), "ns"),
        "simulator.events_per_descriptor": (
            _ratio(events, total("descriptors")), "count"
        ),
        "ib.gather_scatter_s": (incl("ib.gather_scatter"), "s"),
        "ib.gather_scatter_bytes": (first.gather_scatter_bytes, "B"),
        "datatypes.pack_s": (incl("datatypes.pack"), "s"),
        "datatypes.flatten_s": (incl("datatypes.flatten"), "s"),
        "datatypes.layout_memo_hit_ratio": (
            _ratio(first.memo_hits, first.memo_lookups), "ratio"
        ),
        "workloads.validate_s": (incl("workloads.validate"), "s"),
        "workloads.digest_s": (incl("workloads.digest"), "s"),
        "workloads.digests": (
            times[0]["count"].get("workloads.digest", 0), "count"
        ),
        "ib.descriptors": (total("descriptors"), "count"),
        "ib.bytes_injected": (total("bytes_injected"), "B"),
        "node.cpu_busy_us": (total("cpu_busy_us"), "sim_us"),
        "mpi.eager_sends": (total("eager_sends"), "count"),
        "mpi.rndv_sends": (total("rndv_sends"), "count"),
        "mpi.dt_cache_hit_ratio": (
            _ratio(total("dt_hits"), total("dt_hits") + total("dt_misses")),
            "ratio",
        ),
        "registration.cache_hit_ratio": (
            _ratio(total("reg_hits"), total("reg_hits") + total("reg_misses")),
            "ratio",
        ),
        "schemes.copy_bytes": (total("copy_bytes"), "B"),
        "schemes.segments": (total("segments"), "count"),
        "sim_time_us.geomean": (_geomean(ok) if ok else 0.0, "sim_us"),
    }
    for layer in ("mpi", "simulator", "datatypes", "ib", "workloads", "gc",
                  "unattributed"):
        metrics[f"self_s.{layer}"] = (
            med(lambda t: t["self"].get(layer, 0.0)), "s"
        )
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    notes = [
        f"traced wall {traced_wall:.3f} s vs untraced {untraced_wall:.3f} s "
        f"over {len(traced_passes)} pass pair(s); "
        f"{len(first.spans)} spans per pass",
    ]
    return metrics, notes


def _write_outputs(name: str, records: list, traced: list) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.cells.json").write_text(json.dumps(records))
    if traced:
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "passes": {str(p): rec.spans for p, rec in traced},
        }
        (OUT_DIR / f"{name}.spans.json").write_text(json.dumps(doc))


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in _ENV_CLEARED:
        if os.environ.pop(var, None) is not None:
            print(f"note: cleared ${var} for this run", file=sys.stderr)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import cells as cells_mod
    from hostspeed import time_reference
    from tracing import RunProbe, SpanRecorder

    if args.workload not in cells_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(cells_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        cells = cells_mod.build_cells(args.workload, ROOT)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot build the workload's inputs: {exc}",
              file=sys.stderr)
        return 2

    # Which cells run first decides how much heap the C allocator keeps
    # for later clusters (reused, or faulted in afresh each cell: ~10% of
    # set-up time and ~25 MB of RSS), and the seed decides which cells run
    # first.  A fixed, untimed warm-up puts every run in the same state,
    # the one a sweep reaches after its first few cells.
    for cell in cells:
        if cell.warmup:
            try:
                cell.run()
            except Exception:  # counted when the cell fails in a pass
                pass
    gc.collect()
    rng = random.Random(args.seed)
    probe = RunProbe()
    seen: dict = {}
    records: list = []
    traced: list = []
    deadline = perf_counter_ns() + int(args.seconds * 1e9)
    pass_ns: list = []
    npass = 0
    while True:
        order = list(range(len(cells)))
        rng.shuffle(order)
        with_trace = bool(args.trace) and npass % 2 == 1
        recorder = SpanRecorder() if with_trace else None
        # untraced: passes run until the deadline, the last one cut short
        # there; traced: whole pairs, another only if it fits
        stop_ns = deadline if npass and not args.trace else None
        t0 = perf_counter_ns()
        records += _run_pass(cells, order, npass, probe, recorder, seen,
                             stop_ns, None if args.trace else time_reference)
        pass_ns.append(perf_counter_ns() - t0)
        if recorder is not None:
            traced.append((npass, recorder))
        npass += 1
        now = perf_counter_ns()
        if not args.trace:
            if now >= deadline:
                break
        elif npass % 2 == 0 and (
            now + 2 * statistics.median(pass_ns) > deadline
        ):
            break

    if args.trace:
        metrics, notes = per_layer(records, traced)
    else:
        metrics, notes = end_to_end(records)
    failed = [r for r in records if r["error"] is not None]
    _write_outputs(f"{args.workload}-seed{args.seed}-trace{args.trace}",
                   records, traced)

    for r in failed:
        print(f"FAILED {r['key']} (pass {r['pass']}): {r['error']}")
    print(f"error_rate {len(failed)}/{len(records)}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value!r} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
