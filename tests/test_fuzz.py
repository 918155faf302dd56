"""Standing fuzz test: every input the config and graph grammars can spell ends in exit 0, 1 or 2.

The strategies draw whole config files, and for the custom scenario a
graph file: every scenario and construction, levels up to 300 dB (and
log-uniform from 1e-9 to 1e-3 dB) with per-node overrides, uniform and
per-node loss stages down to 1e-300, feedforward gains up to 1e200 in
size, and graphs of 1-7 nodes with unsorted, gapped and negative ids,
isolated nodes and mixed signs.  A node the graph file puts at db=0
must run as an override of 0 dB does.  Some config files carry a
comment byte that is not UTF-8 (0xe9): the whole file is refused, naming it.
Reports go to stdout as JSON; the output and format keys are left out.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cvshape.cli import main
from cvshape.experiments import _LOSS_STAGES, CONSTRUCTIONS, SCENARIOS

WIRE_NODES = (1, 2, 3, 4)
# near 0 dB the canonical symplectic's singular values sit near, not at, 1
LEVELS = st.floats(0.0, 300.0) | st.floats(-9.0, -3.0).map(lambda e: 10.0**e)
ETAS = st.floats(1e-300, 1.0)
GAINS = st.floats(-1e200, 1e200)


@st.composite
def graph_files(draw):
    """(node ids, graph text, nodes at db=0): 1-7 nodes in unsorted order, optional db levels, signed edges."""
    nodes = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=7, unique=True))
    lines, zeros = [], []
    for node in nodes:
        db = draw(st.none() | st.just(0.0) | LEVELS)
        lines.append(f"node {node}" if db is None else f"node {node} db={db!r}")
        if db == 0.0:
            zeros.append(node)
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes), st.sampled_from((1, -1)))
    declared = set()
    for i, j, sign in draw(st.lists(pairs, max_size=10)):
        if i != j and frozenset((i, j)) not in declared:
            declared.add(frozenset((i, j)))
            lines.append(f"edge {i} {j}" if sign == 1 else f"edge {i} {j} sign=-1")
    return nodes, "\n".join(lines) + "\n", zeros


@st.composite
def config_files(draw):
    """(config text, graph text or None, graph nodes at db=0 without an override), lines in random order."""
    scenario = draw(st.sampled_from(SCENARIOS))
    nodes, graph_text, zeros = draw(graph_files()) if scenario == "custom" else (WIRE_NODES, None, [])
    lines = [f"scenario = {scenario}", f"construction = {draw(st.sampled_from(CONSTRUCTIONS))}"]
    if draw(st.booleans()):
        lines.append(f"squeezing_db = {draw(LEVELS)!r}")
    overridden = draw(st.lists(st.sampled_from(nodes), max_size=3, unique=True))
    for node in overridden:
        lines.append(f"squeezing_db.{node} = {draw(LEVELS)!r}")
    if draw(st.booleans()):
        lines.append(f"lossless = {draw(st.sampled_from(('true', 'false', 'yes', 'off')))}")
    for stage in draw(st.lists(st.sampled_from(_LOSS_STAGES), max_size=3, unique=True)):
        if draw(st.booleans()):
            lines.append(f"loss.{stage} = {draw(ETAS)!r}")
        else:
            for node in draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True)):
                lines.append(f"loss.{stage}.{node} = {draw(ETAS)!r}")
    if draw(st.booleans()):
        lines.append(f"calibrate_target = {draw(st.floats(0.1, 0.6))!r}")
    if draw(st.booleans()):
        lines.append(f"feedforward_gain = {draw(GAINS)!r}")
    lines.append(f"trials = {draw(st.sampled_from((0, 1, 2, 7, 1000)) | st.integers(0, 10**6))}")
    lines.append(f"seed = {draw(st.integers(0, 2**32))}")
    if scenario == "custom":
        operation = draw(st.sampled_from(("remove", "shorten", "none")))
        if operation == "remove":
            lines.append(f"remove_node = {draw(st.sampled_from(nodes))}")
        elif operation == "shorten":
            lines.append(f"shorten_inner = {draw(st.sampled_from(nodes))} {draw(st.sampled_from(nodes))}")
    if draw(st.integers(0, 7)) == 0:
        lines.append("# caf\udce9")  # written as the raw byte 0xe9
    zeros = [node for node in zeros if node not in overridden]
    return "\n".join(draw(st.permutations(lines))) + "\n", graph_text, zeros


def _run(config_path: Path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(config_path)])
    return code, out.getvalue(), err.getvalue()


def _reject_non_finite(constant):
    raise AssertionError(f"report carries {constant}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(files=config_files())
def test_every_config_exits_zero_one_or_two(files):
    config_text, graph_text, zeros = files
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "fuzz.cfg"
        if graph_text is not None:
            (Path(tmp) / "fuzz.graph").write_text(graph_text)
            config_text += f"graph_file = {Path(tmp) / 'fuzz.graph'}\n"
        config_path.write_bytes(config_text.encode("utf-8", "surrogateescape"))
        code, out, err = _run(config_path)
        assert code in (0, 1, 2)
        if "\udce9" in config_text:
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {config_path}: 'utf-8' codec can't decode byte 0xe9")
            assert err.count("\n") == 1
            return
        if zeros:  # a file's db=0 is the vacuum: the run matches one with overrides of 0 dB
            zero_path = Path(tmp) / "zero.cfg"
            zero_path.write_text(config_text + "".join(f"squeezing_db.{node} = 0.0\n" for node in zeros))
            zero_code, zero_out, zero_err = _run(zero_path)
            assert (zero_code, zero_err) == (code, err)
            if code != 2:
                assert {**json.loads(zero_out), "config": None} == {**json.loads(out), "config": None}
        if code == 2:
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
            return
        assert err == ""
        assert _run(config_path) == (code, out, err)
    report = json.loads(out, parse_constant=_reject_non_finite)
    assert code == (0 if report["all_pass"] else 1)
