"""Output checks applied to every benchmark operation."""

from __future__ import annotations

import hashlib
import json
import math

#: Monte Carlo sample variances must sit within this many standard errors.
MC_SIGMAS = 5.0

#: Largest allowed ring-route covariance discrepancy.
RING_ROUTE_TOL = 1e-9


def _last_digit(value: float) -> float:
    """One unit in the last of the six significant digits a report prints."""
    if value == 0.0:
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - 5)


def check_op(spec, status, report_bytes, digests: dict) -> list:
    """Return the problems with one operation's outcome; empty means it passed.

    Args:
        spec: the operation's OpSpec.
        status: the exit status ``cli.main`` returned.
        report_bytes: the report file's bytes, or None when none was written.
        digests: key -> report digest of earlier runs; updated in place.
    """
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    if report_bytes is None:
        return problems + ["no report written"]

    digest = hashlib.sha256(report_bytes).hexdigest()
    if digests.setdefault(spec.key, digest) != digest:
        problems.append("report bytes differ from an earlier run of the same config and seed")
    try:
        report = json.loads(report_bytes)
    except ValueError:
        return problems + ["report is not valid JSON"]
    try:
        return problems + _content_problems(spec, report)
    except (AttributeError, KeyError, TypeError) as exc:
        return problems + [f"report is malformed: {exc!r}"]


def _content_problems(spec, report: dict) -> list:
    problems = []
    if report.get("all_pass") is not True:
        problems.append("all_pass is not true")

    mc = report.get("monte_carlo")
    if spec.trials:
        if not mc or mc.get("trials") != spec.trials or not mc.get("forms"):
            problems.append("Monte Carlo section missing or incomplete")
        else:
            for form in mc["forms"]:
                gap = abs(form["sample_var"] - form["analytic_var"])
                if not gap <= MC_SIGMAS * form["stderr"]:
                    problems.append(
                        f"Monte Carlo form {form['form']}: {gap:.3g} off analytic, "
                        f"stderr {form['stderr']:.3g}"
                    )

    if spec.ring_route:
        route = report.get("ring_route") or {}
        if not route.get("discrepancy", math.inf) <= RING_ROUTE_TOL:
            problems.append(f"ring-route discrepancy {route.get('discrepancy')!r}")

    if spec.unchanged_nodes:
        before = {c["node"]: c["variance"] for c in report["initial_criteria"]["nullifiers"]}
        after = {c["node"]: c["variance"] for c in report["final_criteria"]["nullifiers"]}
        for node in spec.unchanged_nodes:
            if node not in after or abs(after[node] - before[node]) > _last_digit(before[node]):
                problems.append(f"nullifier variance of node {node} changed by shaping")
    return problems
