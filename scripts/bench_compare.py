#!/usr/bin/env python3
"""Bench-regression gate: diff *.bench.json runs against committed baselines.

Every bench binary writes a ``<name>.bench.json`` report (see
bench/bench_util.h) carrying the paper-claim verdicts (``claims``), the
bench's own scalar series (``kv``) and the full obs registry
(``metrics``).  This tool compares a fresh run against the checked-in
baseline under ``bench/baselines/`` and fails when the run *regressed*:

  * a claim the baseline reproduced is now missing or DIVERGED
    (matched by claim text + thread count) — always fatal;
  * a kv scalar listed in ``bench/baselines/tolerances.json`` moved
    beyond its stated tolerance — fatal, because listing a key in the
    manifest is the explicit statement that it is stable enough to gate;
  * any other shared kv scalar drifted by more than the advisory factor
    — a warning by default (timing on shared CI runners is noisy),
    fatal under ``--strict-timing``.

New claims and new kv keys never fail the gate (growth is not a
regression), and improvements (DIVERGED -> REPRODUCED) are reported as
such.

Tolerance manifest format (``tolerances.json``)::

    {
      "rt_scaling.bench.json": {
        "speedup_4_workers": {"min_ratio": 0.75},
        "serial_wall_ms":    {"max_ratio": 1.5}
      }
    }

``max_ratio`` gates lower-is-better values (candidate <= base * ratio);
``min_ratio`` gates higher-is-better values (candidate >= base * ratio).

A report whose baseline file does not exist is a hard failure: a typo'd
baseline name (or a bench renamed without ``--update``) must not pass
the gate silently.  ``--allow-missing-baseline`` restores the old skip
behaviour for bootstrap runs of brand-new benches, but a report that is
missing or cannot be read always fails.  Tolerance-manifest entries
naming a baseline that does not exist fail for the same reason.

Usage:
  bench_compare.py [--baseline-dir DIR] [--allow-missing-baseline]
                   [--strict-timing] [--advisory-ratio R] [--update]
                   report.bench.json [...]

``--update`` copies the given reports over their baselines instead of
comparing (the workflow for intentional claim/perf changes: run, eyeball,
update, commit).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys

DEFAULT_BASELINE_DIR = pathlib.Path(__file__).resolve().parent.parent / (
    "bench/baselines"
)
TOLERANCES_FILE = "tolerances.json"


def load_report(path: pathlib.Path) -> dict:
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    for key in ("bench", "claims", "kv"):
        if key not in report:
            raise ValueError(f"{path}: not a bench report (missing '{key}')")
    return report


def claim_key(claim: dict) -> tuple:
    return (claim.get("claim", ""), claim.get("threads", -1))


def compare_claims(base: dict, cand: dict, errors: list, notes: list) -> None:
    cand_claims = {claim_key(c): c for c in cand["claims"]}
    for claim in base["claims"]:
        key = claim_key(claim)
        label = key[0] if key[1] < 0 else f"{key[0]} [T={key[1]}]"
        now = cand_claims.get(key)
        if now is None:
            if claim.get("reproduced"):
                # Thread-gated claims (e.g. "2x @ 4 workers") are only
                # emitted on machines with enough hardware threads; a
                # candidate from a smaller machine skips them by design.
                hw = cand["kv"].get("hardware_threads")
                threads = claim.get("threads", -1)
                if hw is not None and threads > 0 and float(hw) < threads:
                    notes.append(
                        f"claim skipped ({int(float(hw))} hardware "
                        f"thread(s) < {threads}): {label}"
                    )
                else:
                    errors.append(f"claim vanished: {label}")
            continue
        was, is_now = bool(claim.get("reproduced")), bool(now.get("reproduced"))
        if was and not is_now:
            errors.append(f"claim regressed (REPRODUCED -> DIVERGED): {label}")
        elif not was and is_now:
            notes.append(f"claim improved (DIVERGED -> REPRODUCED): {label}")
    for key in cand_claims.keys() - {claim_key(c) for c in base["claims"]}:
        notes.append(f"new claim (not in baseline): {key[0]}")


def compare_kv(
    base: dict,
    cand: dict,
    tolerances: dict,
    advisory_ratio: float,
    strict: bool,
    errors: list,
    warnings: list,
) -> None:
    base_kv, cand_kv = base["kv"], cand["kv"]
    for key, spec in tolerances.items():
        if key not in base_kv:
            warnings.append(f"tolerance for '{key}' but baseline lacks it")
            continue
        if key not in cand_kv:
            errors.append(f"gated kv '{key}' missing from candidate")
            continue
        b, c = float(base_kv[key]), float(cand_kv[key])
        if "max_ratio" in spec and b > 0 and c > b * float(spec["max_ratio"]):
            errors.append(
                f"kv '{key}' regressed: {c:.6g} > {b:.6g} * "
                f"{spec['max_ratio']} (lower is better)"
            )
        if "min_ratio" in spec and b > 0 and c < b * float(spec["min_ratio"]):
            errors.append(
                f"kv '{key}' regressed: {c:.6g} < {b:.6g} * "
                f"{spec['min_ratio']} (higher is better)"
            )
    for key in sorted(set(base_kv) & set(cand_kv) - set(tolerances)):
        b, c = float(base_kv[key]), float(cand_kv[key])
        if b <= 0 or c <= 0:
            continue
        ratio = max(c / b, b / c)
        if ratio > advisory_ratio:
            message = (
                f"kv '{key}' drifted {ratio:.2f}x "
                f"(baseline {b:.6g}, candidate {c:.6g})"
            )
            (errors if strict else warnings).append(message)


def compare(
    report_path: pathlib.Path,
    baseline_dir: pathlib.Path,
    tolerances: dict,
    args: argparse.Namespace,
) -> bool:
    # Read the report first: a missing or unreadable report is an error
    # even when its baseline would be skipped.
    cand = load_report(report_path)
    baseline_path = baseline_dir / report_path.name
    if not baseline_path.exists():
        message = (
            f"{report_path.name}: baseline file does not exist: "
            f"{baseline_path}"
        )
        if args.allow_missing_baseline:
            print(f"skip {message} (run with --update to create one)")
            return True
        print(
            f"FAIL {message}\n"
            f"    (check the report name for typos; bless a new bench "
            f"with --update, or pass --allow-missing-baseline)"
        )
        return False

    base = load_report(baseline_path)
    errors: list = []
    warnings: list = []
    notes: list = []
    if base["bench"] != cand["bench"]:
        errors.append(
            f"bench name changed: '{base['bench']}' -> '{cand['bench']}'"
        )
    compare_claims(base, cand, errors, notes)
    compare_kv(
        base,
        cand,
        tolerances.get(report_path.name, {}),
        args.advisory_ratio,
        args.strict_timing,
        errors,
        warnings,
    )

    status = "FAIL" if errors else "ok"
    print(f"{status} {report_path.name} vs {baseline_path}")
    for line in errors:
        print(f"    REGRESSION: {line}")
    for line in warnings:
        print(f"    warning: {line}")
    for line in notes:
        print(f"    note: {line}")
    return not errors


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff bench JSON reports against committed baselines."
    )
    parser.add_argument("reports", nargs="+", type=pathlib.Path)
    parser.add_argument(
        "--baseline-dir", type=pathlib.Path, default=DEFAULT_BASELINE_DIR
    )
    parser.add_argument(
        "--require-baseline",
        action="store_true",
        help="deprecated no-op: a missing baseline always fails now",
    )
    parser.add_argument(
        "--allow-missing-baseline",
        action="store_true",
        help="skip (instead of fail) reports that have no baseline yet",
    )
    parser.add_argument(
        "--strict-timing",
        action="store_true",
        help="promote advisory kv-drift warnings to failures",
    )
    parser.add_argument(
        "--advisory-ratio",
        type=float,
        default=3.0,
        help="drift factor for kv keys not in the tolerance manifest "
        "(default: 3.0)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy the given reports over their baselines and exit",
    )
    args = parser.parse_args()

    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for report in args.reports:
            load_report(report)  # refuse to bless a malformed report
            shutil.copyfile(report, args.baseline_dir / report.name)
            print(f"updated baseline {args.baseline_dir / report.name}")
        return 0

    tolerances: dict = {}
    tolerance_path = args.baseline_dir / TOLERANCES_FILE
    if tolerance_path.exists():
        with open(tolerance_path, encoding="utf-8") as f:
            tolerances = json.load(f)

    ok = True
    # A tolerance entry naming a baseline that does not exist is a typo:
    # the gate it declares would never run.
    for name in tolerances:
        if name.startswith("__"):
            continue  # "__doc__" etc.
        if not (args.baseline_dir / name).exists():
            print(
                f"FAIL {TOLERANCES_FILE}: entry '{name}' names a baseline "
                f"file that does not exist: {args.baseline_dir / name}"
            )
            ok = False
    for report in args.reports:
        try:
            ok &= compare(report, args.baseline_dir, tolerances, args)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"FAIL {report}: {err}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
