"""The benchmark's workloads: cell grids, their inputs and their checks.

A *cell* is one call a user of the repository makes and waits for: one
point of a figure sweep (``repro.bench.runner``) or one replay of a
checked-in workload trace (``repro.workloads.replay``).  Each cell knows
how to turn its result into simulated microseconds per operation and
how to check that result against a checked-in reference.

Why these three workloads (the layer each one loads is in README.md):

* ``fig11-alltoall`` — 8 ranks, so MPI_Init (fabric, QP connect, ~229k
  pre-posted control receives) is about half of each cell, its largest
  layer: set-up work shows.
* ``fig09-stream`` — 2 ranks and a 100-message window, so the run loop
  is most of each cell: engine, HCA and pack work shows, set-up does not.
* ``scenario-replay`` — the only workload that goes through
  ``repro.workloads`` (validation, digest hashing) and the only one with
  one-sided puts, RDMA reads, fresh per-step datatypes and 4-rank
  eager/rendezvous mixes.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.bench.runner import measure_alltoall, measure_bandwidth
from repro.bench.workloads import column_vector, fig10_struct
from repro.ib.costmodel import MB, get_preset
from repro.schemes import SCHEME_NAMES
from repro.workloads import ir
from repro.workloads.fuzz import expected_payloads
from repro.workloads.replay import replay

#: the paper's four schemes, as Figures 9 and 11 label them
FIGURE_SCHEMES = {
    "generic": "Generic",
    "bc-spup": "BC-SPUP",
    "rwg-up": "RWG-UP",
    "multi-w": "Multi-W",
}
#: last-block sizes taken from ``repro.bench.figures.LAST_BLOCKS``: both
#: ends of the sweep, set-up bound and pack bound, so a pass takes ~9 s
#: and every cell runs three or four times in a 35 s run
FIG11_LAST_BLOCKS = (2048, 131072)
#: columns taken from ``repro.bench.figures.COLUMNS``: eager-only cells
#: (1, 8) and rendezvous cells where multi-w dispatches ~160k events
FIG09_COLUMNS = (1, 8, 64, 512, 2048)
#: the first of the scenario suite's presets
#: (``repro.workloads.suite.DEFAULT_PRESETS``), the paper's platform; the
#: second would double the pass to ~24 s, leaving most cells a single
#: run in a 35 s run
REPLAY_PRESETS = ("mellanox_2003",)
#: the traces whose delivered payloads are also checked against the
#: static oracle (fresh per-step datatypes)
PAYLOAD_CHECKED = ("particle_exchange",)

WORKLOADS = ("fig11-alltoall", "fig09-stream", "scenario-replay")

_HERE = Path(__file__).resolve().parent
REPLAY_REFERENCE = _HERE / "reference" / "replay_digests.json"


@dataclass(frozen=True)
class Cell:
    """One timed call of a workload."""

    #: stable identity, e.g. ``fig11/multi-w/2048``
    key: str
    #: the timed call
    run: Callable[[], Any]
    #: simulated microseconds per operation, from the call's result
    sim_us: Callable[[Any], float]
    #: None when the result is correct, else what is wrong
    check: Callable[[Any], Optional[str]]
    #: run once, untimed, before the first pass (one cell per input size
    #: or trace)
    warmup: bool = False


def _read_figure_csv(path: Path) -> dict:
    """``{(x, series label): value}`` of a checked-in figure CSV."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return {
        (int(row[0]), label): float(value)
        for row in rows[1:]
        for label, value in zip(header[1:], row[1:])
    }


def _equals(expected: float, got: float) -> Optional[str]:
    if got == expected:
        return None
    return f"simulated value {got!r} != checked-in {expected!r}"


def _alltoall(scheme: str, last_block: int) -> float:
    return measure_alltoall(scheme, fig10_struct(last_block).datatype)


def _stream(scheme: str, cols: int) -> float:
    return measure_bandwidth(scheme, column_vector(cols).datatype)


def _stream_us_per_message(nbytes: int, mb_per_s: float) -> float:
    # MB/s over a window of equal messages -> us per message
    return nbytes / MB / mb_per_s * 1e6


def replay_cell(workload: ir.Workload, scheme: str, preset: str, payloads: bool):
    return replay(
        workload,
        scheme=scheme,
        cost_model=get_preset(preset),
        collect_payloads=payloads,
    )


def check_replay(reference: list, expected: Optional[dict], result):
    digests = [[[i, h] for i, h in rank] for rank in result.digests]
    if digests != reference:
        return "digest timeline differs from the checked-in reference"
    for (rank, key), payload in sorted((expected or {}).items()):
        if payload is not None and result.payloads[rank].get(key) != payload:
            return f"rank {rank} receive {key!r}: payload != oracle"
    return None


def load_traces(root: Path) -> dict:
    """``{name: Workload}`` parsed from the checked-in library files."""
    library = root / "src" / "repro" / "workloads" / "library"
    return {
        path.stem: ir.parse(path.read_text())
        for path in sorted(library.glob("*.json"))
    }


def build_cells(workload: str, root: Path) -> list:
    """The cells of ``workload`` in canonical order.

    Inputs and references are read here, before anything is timed.
    ``root`` is the checkout holding ``src/`` and ``results/``.
    """
    cells = []
    if workload == "fig11-alltoall":
        ref = _read_figure_csv(root / "results" / "fig11.csv")
        for x in FIG11_LAST_BLOCKS:
            for scheme, label in FIGURE_SCHEMES.items():
                cells.append(Cell(
                    f"fig11/{scheme}/{x}",
                    functools.partial(_alltoall, scheme, x),
                    float,
                    functools.partial(_equals, ref[(x, label)]),
                    warmup=scheme == "generic",
                ))
    elif workload == "fig09-stream":
        ref = _read_figure_csv(root / "results" / "fig09.csv")
        for x in FIG09_COLUMNS:
            for scheme, label in FIGURE_SCHEMES.items():
                cells.append(Cell(
                    f"fig09/{scheme}/{x}",
                    functools.partial(_stream, scheme, x),
                    functools.partial(
                        _stream_us_per_message, column_vector(x).nbytes
                    ),
                    functools.partial(_equals, ref[(x, label)]),
                    warmup=scheme == "generic",
                ))
    elif workload == "scenario-replay":
        reference = json.loads(REPLAY_REFERENCE.read_text())
        for name, trace in load_traces(root).items():
            payloads = name in PAYLOAD_CHECKED
            expected = expected_payloads(trace) if payloads else None
            check = functools.partial(check_replay, reference[name], expected)
            for preset in REPLAY_PRESETS:
                for scheme in SCHEME_NAMES:
                    cells.append(Cell(
                        f"replay/{name}/{scheme}/{preset}",
                        functools.partial(
                            replay_cell, trace, scheme, preset, payloads
                        ),
                        lambda result: result.time_us,
                        check,
                        warmup=(scheme, preset)
                        == ("generic", REPLAY_PRESETS[0]),
                    ))
    else:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}"
        )
    return cells
