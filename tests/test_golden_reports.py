"""Golden report bytes: fixed CLI runs must keep their exact output.

Each case runs the command-line entry point in a fresh directory and
compares the emitted report with its stored copy in tests/golden/, whose
sha256 is recorded below.  A mismatch names each moved JSON path or CSV
row with its old and new value.  It means a change altered report bytes;
such a change has to be deliberate and recorded with its cause, and the
stored report and its hash updated with it.
"""

import hashlib
import json
from decimal import Decimal
from pathlib import Path

import pytest

from cvshape.cli import main

LOSSY_CFG = """\
scenario = shorten-wire
squeezing_db = 6
squeezing_db.2 = 9
loss.source.1 = 0.97
loss.source.3 = 0.93
loss.propagation = 0.95
loss.feedforward_tap.1 = 0.9
loss.feedforward_tap.4 = 0.92
loss.detection = 0.91
trials = 3000
seed = 3
"""

SIGNED_WIRE_16 = "".join(f"node {k}\n" for k in range(1, 17)) + "".join(
    f"edge {k} {k + 1}" + (" sign=-1\n" if k % 3 == 0 else "\n") for k in range(1, 16)
)


def _lattice_edges(side):
    """Row-major square lattice edges; node k is row (k-1)//side, column (k-1)%side."""
    return [
        (node, node + step)
        for node in range(1, side * side + 1)
        for step, ok in ((1, node % side != 0), (side, node + side <= side * side))
        if ok
    ]


SIGNED_LATTICE_4 = "".join(f"node {k}\n" for k in range(1, 17)) + "".join(
    f"edge {i} {j}" + (" sign=-1\n" if (i + j) % 3 == 0 else "\n") for i, j in _lattice_edges(4)
)

# 8x8 lattice, each odd-numbered node's downward edge signed -1; 2N = 128 spans four covariance tiles a side
SIGNED_LATTICE_64 = "".join(f"node {k}\n" for k in range(1, 65)) + "".join(
    f"edge {i} {j}" + (" sign=-1\n" if j == i + 8 and i % 2 else "\n") for i, j in _lattice_edges(8)
)

FILES = {
    "lossy.cfg": LOSSY_CFG,
    "compiled.cfg": "scenario = shorten-wire\nconstruction = compiled\ntrials = 2000\nseed = 11\n",
    "preset.cfg": "scenario = remove-inner\nconstruction = preset-wire\nsqueezing_db = 7\n",
    "wire16.graph": SIGNED_WIRE_16,
    "wire16.cfg": (
        "scenario = custom\nconstruction = compiled\ngraph_file = wire16.graph\n"
        "shorten_inner = 8 9\nlossless = true\n"
    ),
    "lattice16.graph": SIGNED_LATTICE_4,
    # node 7 is interior (row 2, column 3), so the removal feeds forward to four neighbours
    "lattice16.cfg": "scenario = custom\ngraph_file = lattice16.graph\nremove_node = 7\n",
    "lattice16-compiled.cfg": (
        "scenario = custom\nconstruction = compiled\ngraph_file = lattice16.graph\nremove_node = 7\n"
    ),
    "lattice64.graph": SIGNED_LATTICE_64,
    # centre node 37 removed at 10 dB: 2N goes from 128 to 126, so partial tiles run
    "lattice64.cfg": (
        "scenario = custom\ngraph_file = lattice64.graph\nremove_node = 37\nsqueezing_db = 10\n"
    ),
    # a non-ASCII file name, echoed ASCII-escaped in the report's config
    "gr\u00e4ph.graph": "node 1\nnode 2\nnode 3\nnode 4\nedge 1 2\nedge 2 3 sign=-1\nedge 3 4\n",
    "umlaut.cfg": "scenario = custom\ngraph_file = gr\u00e4ph.graph\nremove_node = 2\n",
    "wire5.graph": "node 1\nnode 2\nnode 3\nnode 4\nnode 5\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\n",
    # at 0 dB the 5-wire's zero adjacency eigenvalue gives the canonical symplectic a unit singular value
    "wire5-vacuum.cfg": (
        "scenario = custom\nconstruction = compiled\ngraph_file = wire5.graph\nremove_node = 3\n"
        "squeezing_db = 0\nlossless = true\n"
    ),
}

# name -> CLI arguments; every case exits 0
CASES = {
    "remove-edge": ["--scenario", "remove-edge"],
    "remove-edge-lossless": ["--scenario", "remove-edge", "--lossless"],
    "remove-edge-csv": ["--scenario", "remove-edge", "--format", "csv"],
    "remove-inner": ["--scenario", "remove-inner"],
    "remove-inner-lossless": ["--scenario", "remove-inner", "--lossless"],
    "remove-inner-csv": ["--scenario", "remove-inner", "--format", "csv"],
    "shorten-wire": ["--scenario", "shorten-wire"],
    "shorten-wire-lossless": ["--scenario", "shorten-wire", "--lossless"],
    "shorten-wire-csv": ["--scenario", "shorten-wire", "--format", "csv"],
    "ring-route-check": ["--scenario", "ring-route-check"],
    "ring-route-check-lossless": ["--scenario", "ring-route-check", "--lossless"],
    "ring-route-check-csv": ["--scenario", "ring-route-check", "--format", "csv"],
    "shorten-wire-mc": ["--scenario", "shorten-wire", "--trials", "100000", "--seed", "7"],
    "shorten-wire-mc-lossless": [
        "--scenario", "shorten-wire", "--trials", "100000", "--seed", "7", "--lossless"
    ],
    "ring-route-check-mc": ["--scenario", "ring-route-check", "--trials", "2000"],
    "lossy-config": ["--config", "lossy.cfg"],
    "compiled": ["--config", "compiled.cfg"],
    "preset-wire": ["--config", "preset.cfg"],
    "signed-wire-16-compiled": ["--config", "wire16.cfg"],
    "signed-lattice-16": ["--config", "lattice16.cfg"],
    "signed-lattice-16-csv": ["--config", "lattice16.cfg", "--format", "csv"],
    "signed-lattice-16-compiled": ["--config", "lattice16-compiled.cfg"],
    "signed-lattice-64": ["--config", "lattice64.cfg"],
    # one trial: sample_var and stderr are null
    "shorten-wire-mc-1": ["--scenario", "shorten-wire", "--trials", "1", "--seed", "7"],
    "custom-non-ascii-graph-file": ["--config", "umlaut.cfg"],
    "wire-5-vacuum-compiled": ["--config", "wire5-vacuum.cfg"],
}

# name -> sha256 of the report bytes, recorded on the gate-chain build
GOLDEN = {
    "remove-edge": "3bc40fbcb2c02c4063931b20417696b3d0ba4a6d81b1a1fd4f3d7d161c92b66d",
    "remove-edge-lossless": "cfe9034b583f53d16db08a5e3ba688dceee51ccaf0001370d7aecaa7f80c9b28",
    "remove-edge-csv": "b9943e47f4a4bf8d98f0be9952bb75c1e2b665a6805010b8ad16e060b9ce388d",
    "remove-inner": "b125419c76701fc8164f199ed745fa34998e1db75eef6ddecbe44e092a08f6a6",
    "remove-inner-lossless": "83e8797133c1ccb78b3632f8c856c5ee2b2ed1cf7c4b0c31c3b3c6ccaecf19da",
    "remove-inner-csv": "c2ceaf11142063e8e6c6af2bbaa50a024404f869b69a20ff348726ea1aa147e4",
    "shorten-wire": "c031d4a20676ee4cc89ae0a0ad10694947f312e648af871114c41e0612c15704",
    "shorten-wire-lossless": "0dbdb38b92217a957e8e61192570d51c0fb7062b8bf264ed14be2587ed76c378",
    "shorten-wire-csv": "869f89d2ad8bbf0219092b30cf260601667668f8d4cd8eb6cc0dd4a07968fdee",
    # re-recorded on the exact quarter turns: ring_route's cos(pi/2) residues and discrepancy print 0.0
    "ring-route-check": "76047a06155e6329a2666aefcbe513efe8e83191bb00b81a213453b844fed63d",
    "ring-route-check-lossless": "48810e25e837c983851c31bfd48a139469a5ef3d45e6f1213f79a38c9b1c983f",
    "ring-route-check-csv": "869f89d2ad8bbf0219092b30cf260601667668f8d4cd8eb6cc0dd4a07968fdee",
    # recorded on the sufficient-statistic (Bartlett) draw of run_trajectory
    "shorten-wire-mc": "584dc20c827d283b608b981abfb5b558d7058b9c8a95494bca5850eedd771230",
    "shorten-wire-mc-lossless": "4a0626573cdc62d6f11f510c2f4e08c471f5e4445a44a5903c6977e94f1a37e2",
    # re-recorded on the exact quarter turns, as ring-route-check
    "ring-route-check-mc": "3d8e6c794b632fb8784717dc1fb251163f233d033299ae3a67baed492004fbb5",
    "lossy-config": "f65437b0ec401ab5c312394bfa45dabbd4dc89061ab22e7d97c9c180c3006843",
    "compiled": "e856b6126a4c639b23a8d93d7aaff499bd60f13bdba727093a7a66be9d6a51b5",
    "preset-wire": "50d60e389cbe1720eb7311bc96835db629240f82c7af1b36707d0675b6d7df09",
    "signed-wire-16-compiled": "5f9c8dbf8174d3578c5e5f77e9bfbe235d718c07cd58760c4ae34342d110afc6",
    # degree-4 nullifiers, recorded on the per-form evaluation before the batch evaluator
    "signed-lattice-16": "c149b8f81e57bec6d4fd4bdd1c9b47f5e9cfee58dc09b54c25219fb794139c84",
    "signed-lattice-16-csv": "571073283f2d2620cf1ba7600697189650e8f5a5d4641cc8399819db21bc1af0",
    "signed-lattice-16-compiled": "ba7d7b2ceab9581312810ed6631828d01681a2bb3192f3ebb8e17f0d22d6da92",
    # past one covariance tile; recorded on the toleranced tile pass, before the bitwise fast path
    "signed-lattice-64": "bc071f73021020c2c6b78be9b095f68571c7f35b91f51985e979613816c1f2a3",
    # recorded on the json.dumps writer, before the one-pass writer
    "shorten-wire-mc-1": "8ea9e07d3a6714f643abc0ac5d05fc62947e9ebc54f979dbefa38f992012fe4d",
    "custom-non-ascii-graph-file": "960e6e24f72bf88c7e237ed0281ad10dbf5fffd7112ee29f2347f8e77e89724b",
    # recorded on the Gram-Schmidt unit block, before the complex SVD
    "wire-5-vacuum-compiled": "89a038d7d6ce4f47869864595d8781c458c32197a09141aeb13c1a14b01789a6",
}


GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / (name + (".csv" if name.endswith("-csv") else ".json"))


ABSENT = object()


def _text(value) -> str:
    """A JSON value as the report spelled it; a float keeps its digits, as Decimal."""
    return "<absent>" if value is ABSENT else str(value) if isinstance(value, Decimal) else json.dumps(value)


def _moved_values(old, new, path: str, out: list) -> list:
    """Append "path: old -> new" for each JSON value that differs, walking dicts by key and lists by index."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [key for key in new if key not in old]:
            _moved_values(old.get(key, ABSENT), new.get(key, ABSENT), f"{path}.{key}" if path else key, out)
    elif isinstance(old, list) and isinstance(new, list):
        for k in range(max(len(old), len(new))):
            _moved_values(old[k] if k < len(old) else ABSENT, new[k] if k < len(new) else ABSENT, f"{path}[{k}]", out)
    elif type(old) is not type(new) or old != new:
        out.append(f"{path or '<report>'}: {_text(old)} -> {_text(new)}")
    return out


def report_changes(old: str, new: str, csv: bool) -> list:
    """The moved JSON paths, or CSV rows, of two report texts, each with its old and new value."""
    if csv:
        old_rows, new_rows = old.splitlines(), new.splitlines()
        return [
            f"row {k}: {old_rows[k] if k < len(old_rows) else '<absent>'} -> "
            f"{new_rows[k] if k < len(new_rows) else '<absent>'}"
            for k in range(max(len(old_rows), len(new_rows)))
            if old_rows[k:k + 1] != new_rows[k:k + 1]
        ]
    moved = _moved_values(json.loads(old, parse_float=Decimal), json.loads(new, parse_float=Decimal), "", [])
    if moved or old == new:
        return moved
    k = next(k for k, (a, b) in enumerate(zip(old.splitlines() + [""], new.splitlines() + [""])) if a != b)
    return [f"same values, layout moved at line {k + 1}: {old.splitlines()[k:k + 1]} -> {new.splitlines()[k:k + 1]}"]


def report_bytes(argv, capsys):
    """Exit status and stdout bytes of one CLI run in the current directory."""
    for name, text in FILES.items():
        with open(name, "w") as handle:
            handle.write(text)
    code = main(list(argv))
    return code, capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stored_report_is_the_recorded_one(name):
    assert hashlib.sha256(golden_path(name).read_bytes()).hexdigest() == GOLDEN[name]


def test_every_stored_report_is_a_case():
    assert sorted(path.name for path in GOLDEN_DIR.iterdir()) == sorted(golden_path(name).name for name in CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out = report_bytes(CASES[name], capsys)
    assert code == 0
    stored = golden_path(name).read_bytes()
    if out != stored:
        moved = report_changes(stored.decode(), out.decode(), csv=name.endswith("-csv"))
        pytest.fail(f"{name}: report bytes moved from tests/golden\n" + "\n".join(moved), pytrace=False)


def test_a_moved_json_value_is_named_by_its_path():
    old = golden_path("remove-edge").read_text()
    report = json.loads(old)
    variance = report["final_criteria"]["nullifiers"][1]["variance"]
    report["final_criteria"]["nullifiers"][1]["variance"] = 0.5
    report["final_criteria"]["all_pass"] = "maybe"
    moved = report_changes(old, json.dumps(report, indent=2) + "\n", csv=False)
    assert moved == [
        f"final_criteria.nullifiers[1].variance: {variance} -> 0.5", 'final_criteria.all_pass: true -> "maybe"'
    ]


def test_a_moved_csv_row_is_named_by_its_index():
    old = golden_path("remove-edge-csv").read_text()
    rows = old.splitlines()
    new = "\n".join(rows[:2] + [rows[2].replace("true", "false")] + rows[3:-1]) + "\n"
    assert report_changes(old, new, csv=True) == [
        f"row 2: {rows[2]} -> {rows[2].replace('true', 'false')}", f"row {len(rows) - 1}: {rows[-1]} -> <absent>"
    ]


def test_a_layout_move_with_the_same_values_names_its_line():
    old = golden_path("remove-edge").read_text()
    assert report_changes(old, json.dumps(json.loads(old)) + "\n", csv=False)[0].startswith(
        "same values, layout moved at line 1: "
    )
