"""Output checks for the benchmark workloads.

The checks test invariants the paper's results guarantee, with references
computed here independently of the library, so they keep holding when a
change alters the library's random stream.  Each check takes what one
operation returned and gives (items completed, problem), where problem is
None when the output is correct.
"""

import csv
import json
import math
import os

# One-sided slack for an inequality and agreement tolerance for identities
# that hold to rounding (the library's TAU_CHECK).
TAU = 1e-9
# The counterexample's states are truncated at tail mass 1e-10, which moves
# its M_TN by about 3e-9 from the closed forms.
TAU_TRUNCATED = 1e-8
# Documented residual bound of the bisection solve: TAU_ROOT * max(1, N).
TAU_ROOT = 1e-12

AUDIT_ALWAYS = {
    "log-negativity vs coherence-scale (mode-counting)",
    "classical states have QCS^2 <= 1",
    "classical states have zero log-negativity",
    "entanglement vs total noise (even split)",
    "entanglement vs total noise (uneven split)",
}
AUDIT_TWO_MODE = {"two-mode coherence-scale refinement"}
# Threshold implications are reported only when their hypothesis holds.
AUDIT_CONDITIONAL = {
    "entangled-enough implies nonclassical",
    "classical-enough implies unentangled (PPT)",
}


def binomial_entropy(N):
    """Entropy of Binomial(N, 1/2): the E_F of |N, 0> after a balanced beam splitter."""
    total = 0.0
    for m in range(N + 1):
        p = math.exp(math.lgamma(N + 1) - math.lgamma(m + 1) - math.lgamma(N - m + 1)
                     - N * math.log(2.0))
        total -= p * math.log(p)
    return total


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _cli_json(res):
    code, text = res
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(text)


def audit_report(res, path, modes):
    code, _ = res
    if code != 0:
        return 0, f"exit code {code}"
    with open(path) as fh:
        report = json.load(fh)
    if report["violations"]:
        return 0, f"{len(report['violations'])} violations"
    names = set(report["by_check"])
    required = AUDIT_ALWAYS | (AUDIT_TWO_MODE if modes == 2 else set())
    if not required <= names <= required | AUDIT_CONDITIONAL:
        return 0, f"check names {sorted(names)}"
    counts = report["counts"]
    by_check = report["by_check"]
    fock_checks = (by_check["entanglement vs total noise (even split)"]["count"]
                   + by_check["entanglement vs total noise (uneven split)"]["count"])
    if (by_check["classical states have QCS^2 <= 1"]["count"] != counts["classical"]
            or fock_checks != counts["fock"]):
        return 0, "per-check counts do not match the state counts"
    worst = min(entry["min_margin"] for entry in by_check.values())
    if worst < -TAU:
        return 0, f"margin {worst} below -{TAU}"
    return sum(counts.values()), None


def sweep_files(out_dir, expected_rows):
    with open(os.path.join(out_dir, "beam_splitter_sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, "beam_splitter_sweep.manifest.json")) as fh:
        manifest = json.load(fh)
    if len(rows) != expected_rows:
        return 0, f"{len(rows)} rows, expected {expected_rows}"
    if manifest["columns"] != list(rows[0]):
        return 0, "manifest columns differ from the CSV header"
    for row in rows:
        family, param = row["family"], float(row["param"])
        ef, g_in, ratio = float(row["ef"]), float(row["g_in"]), float(row["ratio"])
        if ef > g_in + TAU:
            return 0, f"{family} {param}: E_F {ef} > g_in {g_in}"
        if family == "tmsv-direct" and abs(ratio - 1.0) > TAU:
            return 0, f"tmsv-direct {param}: ratio {ratio}"
        if family == "number-split" and not _close(ef, binomial_entropy(int(param)), TAU):
            return 0, f"number-split {param}: E_F {ef} is not the binomial entropy"
    return len(rows), None


def fock_measure(res):
    out = _cli_json(res)
    if not _close(out["qcs2"], out["mtn"], TAU):
        return 0, f"pure Fock state with qcs2 {out['qcs2']} != mtn {out['mtn']}"
    return 1, None


def gaussian_measure(res):
    out = _cli_json(res)
    if not (out["qcs2"] > 0.0 and math.isfinite(out["log_negativity"])
            and min(out["symplectic_spectrum"]) >= 1.0 - TAU):
        return 0, f"unphysical measures {out}"
    return 1, None


def gaussian_tmsv(res, r):
    out = _cli_json(res)
    if not _close(out["log_negativity"], 2.0 * r, TAU):
        return 0, f"TMSV log-negativity {out['log_negativity']} != 2r = {2.0 * r}"
    return 1, None


def bounds_hold(res):
    out = _cli_json(res)
    if not out["all_hold"]:
        return 0, f"bound-check reports a violation: {out['checks']}"
    return 1, None


def beamsplitter_single_arm(res):
    out = _cli_json(res)
    if not _close(out["ef"], binomial_entropy(40), TAU):
        return 0, f"|40,0> gives E_F {out['ef']}, not the binomial entropy"
    return beamsplitter_twin(res)


def beamsplitter_twin(res):
    out = _cli_json(res)
    if out["ef"] > out["g_in"] + TAU:
        return 0, f"E_F {out['ef']} > g_in {out['g_in']}"
    return 1, None


def nastar(res, N):
    out = _cli_json(res)
    residual = out["solutions"]["bisection"]["residual"]
    if residual > TAU_ROOT * max(1.0, N):
        return 0, f"bisection residual {residual} above {TAU_ROOT} * max(1, {N})"
    return 1, None


def counterexample(res):
    out = _cli_json(res)
    expected = {
        "mtn_base": 7.0 / 3.0,
        "mtn_permuted": 2.25,
        "ef_base": 2.0 * math.log(2.0),
        "ef_permuted": 2.0 * math.log(2.0),
    }
    for key, value in expected.items():
        if not _close(out[key], value, TAU_TRUNCATED):
            return 0, f"counterexample {key} = {out[key]}, expected {value}"
    return 1, None


def figure(res, out_dir, name):
    _cli_json(res)
    with open(os.path.join(out_dir, f"{name}.csv")) as fh:
        rows = sum(1 for _ in fh) - 1
    if rows < 1:
        return 0, f"{name}.csv has no rows"
    return 1, None
