"""Self-tests of the benchmark's own machinery.

Run from the repository root:  python3 perfbench/selftest.py
"""

import json
import os
import shutil
import tempfile
import unittest
from pathlib import Path

import run
from checks import check_op
from tracer import LAYERS, Tracer, _targets
from workloads import OpSpec, generate

run.pin_blas_threads()
CLI = run.import_program()


class WorkDir(unittest.TestCase):
    def setUp(self):
        (run.ROOT / ".bench_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_work"))
        self.cwd = os.getcwd()
        os.chdir(self.work)

    def tearDown(self):
        os.chdir(self.cwd)
        shutil.rmtree(self.work, ignore_errors=True)


class CheckerCountsFailures(WorkDir):
    def test_good_op_passes_and_corrupted_report_fails(self):
        spec = generate("paper-scenarios", 1, self.work)[3]  # ring-route-check
        runner = run.Runner(CLI, [spec])
        runner.run(0)
        self.assertEqual(runner.failures, [])
        good = Path(spec.output).read_bytes()
        corrupted = good.replace(b'"all_pass": true', b'"all_pass": false')
        self.assertNotEqual(corrupted, good)
        problems = check_op(spec, 0, corrupted, runner.digests)
        self.assertIn("all_pass is not true", problems)
        self.assertTrue(any("bytes differ" in p for p in problems))
        self.assertTrue(check_op(spec, 0, good[: len(good) // 2], {}))

    def test_exit_2_config_counts_as_failed(self):
        Path("bad.cfg").write_text("scenario = no-such-scenario\n")
        spec = OpSpec(key="bad", argv=("--config", "bad.cfg", "--output", "bad.json"),
                      output="bad.json")
        runner = run.Runner(CLI, [spec])
        runner.run(0)
        self.assertEqual(runner.attempted, 1)
        self.assertEqual(len(runner.failures), 1)
        self.assertIn("exit status 2", runner.failures[0]["problems"])

    def test_monte_carlo_and_removal_checks_fire(self):
        mc = generate("paper-mc", 1, self.work)[0]
        runner = run.Runner(CLI, [mc])
        runner.run(0)
        self.assertEqual(runner.failures, [])
        report = Path(mc.output).read_bytes()
        off = report.replace(b'"stderr": ', b'"stderr": 0.0, "was": ', 1)
        self.assertTrue(any("Monte Carlo" in p for p in check_op(mc, 0, off, {})))

        lattice = generate("wide-lattice", 1, self.work)[0]
        runner = run.Runner(CLI, [lattice])
        runner.run(0)
        self.assertEqual(runner.failures, [])
        report = json.loads(Path(lattice.output).read_bytes())
        report["final_criteria"]["nullifiers"][0]["variance"] *= 1.01  # node 1
        problems = check_op(lattice, 0, json.dumps(report).encode(), {})
        self.assertEqual(problems, ["nullifier variance of node 1 changed by shaping"])


class GeneratorIsSeeded(unittest.TestCase):
    def files(self, workload, seed):
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
            generate(workload, seed, Path(tmp))
            return {p.name: p.read_bytes() for p in Path(tmp).iterdir() if p.is_file()}

    def test_same_seed_same_bytes_other_seed_other_signs(self):
        (run.ROOT / ".bench_work").mkdir(exist_ok=True)
        for workload, graph in (("wide-lattice", "lattice.graph"), ("compiled-wire", "wire.graph")):
            first = self.files(workload, 11)
            self.assertEqual(first, self.files(workload, 11))
            self.assertNotEqual(first[graph], self.files(workload, 12)[graph])


class TracerRestores(WorkDir):
    def test_spans_nest_and_functions_come_back(self):
        before = [(owner, attr, fn) for layer, _, _ in LAYERS for owner, attr, fn in _targets(layer)]
        spec = generate("compiled-wire", 1, self.work)[0]
        runner, tracer = run.Runner(CLI, [spec]), Tracer()
        tracer.op = 0
        with tracer.installed():
            runner.run(0)
        for owner, attr, fn in before:
            self.assertIs(owner.__dict__[attr], fn)
        self.assertEqual(runner.failures, [])
        roots = [s for s in tracer.spans if s[3] == -1]
        self.assertEqual([s[0] for s in roots], ["cli.main"])
        self_sum = sum(entry[0] for entry in tracer.per_op()[0].values())
        self.assertAlmostEqual(self_sum, roots[0][2] - roots[0][1], places=9)


if __name__ == "__main__":
    unittest.main()
