"""Seeded input generators for the benchmark workloads.

Each generator writes the graph and config files one workload reads into
a directory and returns one cycle of operations.  An operation is one
``cvshape`` command line; the benchmark runs the cycle round-robin.  All
paths in the files and command lines are relative to that directory, so
one seed regenerates byte-identical files wherever they are written.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

#: Distinct Monte Carlo seeds per paper-mc cycle; each recurs every cycle,
#: so repeated (config, seed) pairs can be checked for identical reports.
MC_SEEDS_PER_CYCLE = 8

#: Trials per paper-mc operation, as in the README example.
MC_TRIALS = 100_000

LATTICE_SIDE = 8
LATTICE_REMOVED = 37
COMPILED_WIRE_NODES = 16
COMPILED_WIRE_INNER = (8, 9)


@dataclass(frozen=True)
class OpSpec:
    """One operation and what its report must satisfy.

    Attributes:
        key: names the (config, seed) pair; every repeat of a key must
            produce the same report bytes.
        argv: arguments for ``cvshape.cli.main``.
        output: report path the command writes.
        trials: Monte Carlo trials the report must carry (0 = none).
        ring_route: the report carries a ring-route discrepancy.
        unchanged_nodes: nodes whose nullifier variance shaping must keep.
    """

    key: str
    argv: tuple
    output: str
    trials: int = 0
    ring_route: bool = False
    unchanged_nodes: tuple = ()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _op(key: str, config: str, seed: int, **checks) -> OpSpec:
    output = f"out/{key}.json"
    argv = ("--config", config, "--seed", str(seed), "--output", output)
    return OpSpec(key=key, argv=argv, output=output, **checks)


def _write(directory: Path, name: str, lines) -> str:
    (directory / name).write_text("".join(f"{line}\n" for line in lines))
    return name


def _signed_graph_text(n_nodes: int, pairs, rng: random.Random) -> list:
    lines = [f"node {k}" for k in range(1, n_nodes + 1)]
    lines += [f"edge {i} {j} sign={rng.choice((1, -1))}" for i, j in pairs]
    return lines


def _paper_scenarios(directory: Path, seed: int) -> list:
    rng = _rng("paper-scenarios", seed)
    ops = []
    for scenario in ("remove-edge", "remove-inner", "shorten-wire", "ring-route-check"):
        config = _write(directory, f"{scenario}.cfg", [f"scenario = {scenario}", "trials = 0"])
        ops.append(
            _op(scenario, config, rng.randrange(2**31), ring_route=scenario == "ring-route-check")
        )
    return ops


def _paper_mc(directory: Path, seed: int) -> list:
    rng = _rng("paper-mc", seed)
    config = _write(directory, "mc.cfg", ["scenario = shorten-wire", f"trials = {MC_TRIALS}"])
    return [
        _op(f"mc-{k}", config, rng.randrange(2**31), trials=MC_TRIALS)
        for k in range(MC_SEEDS_PER_CYCLE)
    ]


def lattice_edges(side: int) -> list:
    """Edges of a side x side square lattice, nodes numbered row-major from 1."""
    edges = []
    for row in range(side):
        for col in range(side):
            node = row * side + col + 1
            if col + 1 < side:
                edges.append((node, node + 1))
            if row + 1 < side:
                edges.append((node, node + side))
    return edges


def _wide_lattice(directory: Path, seed: int) -> list:
    rng = _rng("wide-lattice", seed)
    edges = lattice_edges(LATTICE_SIDE)
    graph = _write(directory, "lattice.graph", _signed_graph_text(LATTICE_SIDE**2, edges, rng))
    config = _write(
        directory,
        "lattice.cfg",
        [
            "scenario = custom",
            f"graph_file = {graph}",
            "construction = canonical",
            f"remove_node = {LATTICE_REMOVED}",
            "squeezing_db = 10",
            "trials = 0",
        ],
    )
    adjacent = {i for i, j in edges if j == LATTICE_REMOVED} | {
        j for i, j in edges if i == LATTICE_REMOVED
    }
    unchanged = tuple(
        n for n in range(1, LATTICE_SIDE**2 + 1) if n != LATTICE_REMOVED and n not in adjacent
    )
    return [_op("lattice", config, rng.randrange(2**31), unchanged_nodes=unchanged)]


def _compiled_wire(directory: Path, seed: int) -> list:
    rng = _rng("compiled-wire", seed)
    n = COMPILED_WIRE_NODES
    graph = _write(
        directory, "wire.graph", _signed_graph_text(n, [(k, k + 1) for k in range(1, n)], rng)
    )
    a, b = COMPILED_WIRE_INNER
    config = _write(
        directory,
        "wire.cfg",
        [
            "scenario = custom",
            f"graph_file = {graph}",
            "construction = compiled",
            f"shorten_inner = {a} {b}",
            "trials = 0",
        ],
    )
    return [_op("wire", config, rng.randrange(2**31))]


#: name -> generator.  ``paper-scenarios`` is not in BENCHMARK.json: its
#: run-to-run spread was too wide for the bounds (see README.md).
WORKLOADS = {
    "paper-scenarios": _paper_scenarios,
    "paper-mc": _paper_mc,
    "wide-lattice": _wide_lattice,
    "compiled-wire": _compiled_wire,
}


def generate(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's inputs for a seed and return one cycle of ops."""
    directory = Path(directory)
    (directory / "out").mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](directory, seed)
