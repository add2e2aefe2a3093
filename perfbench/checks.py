"""Output checks for every op: reference values and exact/asymptotic agreement.

Reference values were recorded from the seed commit by record_reference.py.
A number matches when it is within REL_TOL of the reference, or within
ABS_TOL for values near zero; any other cell must match as text.
"""

import csv
import json
import math
import os

REL_TOL = 1e-9
ABS_TOL = 1e-12
# selftest's timing column and free-text detail are not outputs to compare;
# the check's PASS/FAIL status is.
IGNORED_COLUMNS = ("seconds", "detail")
# the largest |ratio - 1| allowed at the largest N of a *-compare op
AGREEMENT_TOL = 0.05
# |ratio - 1| must shrink from one N to the next until it is below this.  When
# a table's 1/N coefficient is near zero the 1/N^2 term takes over and the gap
# need not shrink monotonically, but it is then tiny: over the seeded float
# tables of seeds 0-199 and 1000-1009, every step where it grew stayed below
# 1.3e-6 (seed 1004: 7e-8, 7e-7, 5e-7 at N=600, 1200, 2400).
AGREEMENT_FLOOR = 1e-5

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def parse_report(text: str) -> dict:
    """A CSV report: `# name = value` scalars, then a header row and data rows."""
    scalars = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            name, _, value = line[2:].partition(" = ")
            scalars[name] = value
        elif line:
            body.append(line)
    rows = list(csv.reader(body))
    return {"scalars": scalars, "columns": rows[0] if rows else [], "rows": rows[1:]}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _same(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(a) or math.isnan(b):
        return False
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_reference(got: dict, want: dict) -> list[str]:
    problems = []
    for name, value in want["scalars"].items():
        if name not in got["scalars"]:
            problems.append(f"scalar {name} missing")
        elif not _same(got["scalars"][name], value):
            problems.append(f"scalar {name} = {got['scalars'][name]}, reference {value}")
    if got["columns"] != want["columns"]:
        return problems + [f"columns {got['columns']}, reference {want['columns']}"]
    if len(got["rows"]) != len(want["rows"]):
        return problems + [f"{len(got['rows'])} rows, reference {len(want['rows'])}"]
    keep = [i for i, c in enumerate(want["columns"]) if c not in IGNORED_COLUMNS]
    for k, (row, ref) in enumerate(zip(got["rows"], want["rows"])):
        for i in keep:
            if not _same(row[i], ref[i]):
                problems.append(f"row {k} {want['columns'][i]} = {row[i]}, reference {ref[i]}")
    return problems


def check_agreement(got: dict) -> list[str]:
    """ratio -> 1: |ratio - 1| shrinks as N grows, down to AGREEMENT_FLOOR, and
    ends below AGREEMENT_TOL."""
    cols = got["columns"]
    if "N" not in cols or "ratio" not in cols:
        return ["no N/ratio columns"]
    pairs = [(int(row[cols.index("N")]), abs(float(row[cols.index("ratio")]) - 1.0))
             for row in got["rows"]]
    pairs.sort()
    gaps = [g for _, g in pairs]
    if not gaps or any(math.isnan(g) for g in gaps):
        return [f"|ratio-1| {gaps}"]
    if any(b >= max(a, AGREEMENT_FLOOR) for a, b in zip(gaps, gaps[1:])):
        return [f"|ratio-1| does not shrink with N: {gaps}"]
    if gaps[-1] >= AGREEMENT_TOL:
        return [f"|ratio-1| = {gaps[-1]:.3g} at N={pairs[-1][0]}, above {AGREEMENT_TOL}"]
    return []


def check_op(op, path: str, reference: dict) -> list[str]:
    """Problems with one op's output file; empty when it is correct."""
    try:
        with open(path, encoding="utf-8") as fh:
            got = parse_report(fh.read())
    except OSError as exc:
        return [f"{op.id}: no output ({exc})"]
    problems = []
    try:
        if op.reference:
            if op.id not in reference:
                problems.append("no reference recorded")
            else:
                problems += compare_reference(got, reference[op.id])
        if op.agreement:
            problems += check_agreement(got)
    except (ValueError, IndexError) as exc:
        problems.append(f"unreadable output: {exc}")
    return [f"{op.id}: {p}" for p in problems]


def check_pass(ops, exits, work: str, reference: dict) -> tuple[int, list[str]]:
    """Failed-op count and problems of one pass over `ops`.

    `exits` holds each op's exit code and a note to show when it is nonzero.
    """
    failed = 0
    problems = []
    for op, (code, note) in zip(ops, exits):
        if code != 0:
            found = [f"{op.id}: exit {code} {note}".rstrip()]
        else:
            found = check_op(op, os.path.join(work, op.id + ".csv"), reference)
        failed += bool(found)
        problems += found
    return failed, problems
