#!/usr/bin/env python3
"""Prometheus text-format linter for the exporters' .prom output.

Validates the exposition-format subset mdn::obs emits:

  * metric and label names match [a-zA-Z_:][a-zA-Z0-9_:]*,
  * label values are double-quoted with only \\, \" and \n escapes,
  * sample values parse as floats (incl. +Inf/-Inf/NaN),
  * `# TYPE` lines are well-formed, name a known type and appear at most
    once per family,
  * every sampled family is TYPE-declared before its first sample,
  * each family's lines (TYPE, HELP and samples) form one group: once
    another family's line appears, the family may not appear again,
  * histogram families expose _bucket/_sum/_count with an +Inf bucket
    and non-decreasing cumulative bucket counts,
  * health families (obs::Health::to_prometheus, mdn_health_*) are
    always labeled with the microphone, component-state samples take
    only the enum values 0/1/2 (OK/Degraded/Failed), alert counters
    carry a valid severity label, per-watch SNR samples carry a watch
    label, and *_total counters are non-negative,
  * latency families (obs::LatencyProfiler::to_prometheus,
    mdn_latency_*) carry a stage label from the known pipeline-stage
    taxonomy on per-stage samples, counts and seconds are non-negative,
    and per stage p50 <= p99 <= max,
  * timeline families (obs::Timeline::to_prometheus, mdn_timeline_*)
    carry a track label on per-track rollups, sample and drop counts
    are non-negative, and per track min <= max.

Usage: lint_prom.py FILE [FILE...]   (exit 1 on the first bad file)
"""

import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}
HIST_SUFFIXES = ("_bucket", "_sum", "_count")
# The families obs::Health::to_prometheus emits.  Registry-derived names
# that merely share the prefix (e.g. the health/mic/<id>/state gauge,
# sanitized to mdn_health_mic_0_state) get only the generic checks.
HEALTH_FAMILIES = {
    "mdn_health_component_state",
    "mdn_health_noise_floor",
    "mdn_health_min_snr_db",
    "mdn_health_snr_db",
    "mdn_health_onset_rate_hz",
    "mdn_health_silence_seconds",
    "mdn_health_drops_total",
    "mdn_health_alerts_total",
}
HEALTH_SEVERITIES = {"ok", "degraded", "failed"}
# The families obs::LatencyProfiler::to_prometheus emits, and the
# pipeline-stage taxonomy their stage label must come from
# (src/obs/latency.h).
LATENCY_FAMILIES = {
    "mdn_latency_stage_count",
    "mdn_latency_stage_p50_seconds",
    "mdn_latency_stage_p99_seconds",
    "mdn_latency_stage_max_seconds",
    "mdn_latency_stage_sum_seconds",
    "mdn_latency_actions_profiled",
}
LATENCY_STAGES = {
    "upstream_wait", "capture", "ring_wait", "detect", "merge",
    "fsm", "app", "actuate", "health", "drop",
}
# The families obs::Timeline::to_prometheus emits; per-track rollups
# must carry a track label.
TIMELINE_FAMILIES = {
    "mdn_timeline_samples",
    "mdn_timeline_dropped",
    "mdn_timeline_last",
    "mdn_timeline_min",
    "mdn_timeline_max",
    "mdn_timeline_rate_per_second",
}
TIMELINE_TRACK_FAMILIES = {
    "mdn_timeline_last",
    "mdn_timeline_min",
    "mdn_timeline_max",
    "mdn_timeline_rate_per_second",
}


def check_health_sample(family, labels, value, errors, where):
    """Schema checks for the obs::Health exporter's metric families."""
    if "mic" not in labels:
        errors.append(f"{where}: health sample {family} lacks a mic label")
    if family == "mdn_health_component_state" and value not in (0.0, 1.0, 2.0):
        errors.append(
            f"{where}: component_state must be 0, 1 or 2, got {value!r}")
    if family == "mdn_health_alerts_total":
        severity = labels.get("severity")
        if severity not in HEALTH_SEVERITIES:
            errors.append(
                f"{where}: alerts_total severity label must be one of "
                f"{sorted(HEALTH_SEVERITIES)}, got {severity!r}")
    if family == "mdn_health_snr_db" and "watch" not in labels:
        errors.append(f"{where}: snr_db sample lacks a watch label")
    if family.endswith("_total") and value < 0:
        errors.append(f"{where}: counter {family} is negative ({value!r})")


def check_latency_sample(family, labels, value, errors, where,
                         stage_quantiles):
    """Schema checks for the obs::LatencyProfiler exporter families."""
    if value < 0:
        errors.append(f"{where}: latency sample {family} is negative "
                      f"({value!r})")
    if family == "mdn_latency_actions_profiled":
        if labels:
            errors.append(f"{where}: actions_profiled takes no labels")
        return
    stage = labels.get("stage")
    if stage not in LATENCY_STAGES:
        errors.append(
            f"{where}: latency sample {family} needs a stage label from "
            f"the pipeline taxonomy, got {stage!r}")
        return
    # Remember quantiles so the end-of-file pass can check the per-stage
    # ordering p50 <= p99 <= max.
    for quantile in ("p50", "p99", "max"):
        if family == f"mdn_latency_stage_{quantile}_seconds":
            stage_quantiles.setdefault(stage, {})[quantile] = value


def check_timeline_sample(family, labels, value, errors, where,
                          track_extremes):
    """Schema checks for the obs::Timeline exporter families."""
    if family in ("mdn_timeline_samples", "mdn_timeline_dropped"):
        if value < 0:
            errors.append(f"{where}: {family} is negative ({value!r})")
        return
    track = labels.get("track")
    if family in TIMELINE_TRACK_FAMILIES and track is None:
        errors.append(f"{where}: timeline rollup {family} lacks a track label")
        return
    for extreme in ("min", "max"):
        if family == f"mdn_timeline_{extreme}":
            track_extremes.setdefault(track, {})[extreme] = value


def parse_labels(raw, errors, where):
    """Parses `k="v",k2="v2"` (the body between braces); returns a dict."""
    labels = {}
    i = 0
    while i < len(raw):
        m = re.match(r"([a-zA-Z_][a-zA-Z0-9_]*)=\"", raw[i:])
        if not m:
            errors.append(f"{where}: bad label syntax at ...{raw[i:]!r}")
            return labels
        name = m.group(1)
        i += m.end()
        value = []
        while i < len(raw):
            c = raw[i]
            if c == "\\":
                if i + 1 >= len(raw) or raw[i + 1] not in ('\\', '"', 'n'):
                    errors.append(f"{where}: illegal escape in label {name}")
                    return labels
                value.append(raw[i : i + 2])
                i += 2
            elif c == '"':
                i += 1
                break
            else:
                value.append(c)
                i += 1
        else:
            errors.append(f"{where}: unterminated label value for {name}")
            return labels
        labels[name] = "".join(value)
        if i < len(raw):
            if raw[i] != ",":
                errors.append(f"{where}: expected ',' between labels")
                return labels
            i += 1
    return labels


def family_of(name, declared):
    """A declared histogram's _bucket/_sum/_count samples belong to it;
    any other name (mdn_latency_stage_count, say) is its own family."""
    for suffix in HIST_SUFFIXES:
        base = name[: -len(suffix)]
        if name.endswith(suffix) and declared.get(base) == "histogram":
            return base
    return name


def lint(path):
    errors = []
    declared = {}  # family -> type
    sampled_families = set()
    current, closed, split = None, set(), set()  # family groups
    buckets = {}  # family -> list of (le, count) in file order
    stage_quantiles = {}  # stage -> {p50/p99/max: value}
    track_extremes = {}  # track -> {min/max: value}

    def enter_group(family, where):
        """A family whose group another family's line closed is split."""
        nonlocal current
        if family == current:
            return
        closed.add(current)
        if family in closed and family not in split:
            split.add(family)
            errors.append(f"{where}: family {family} is split into more "
                          f"than one group (its lines must be contiguous)")
        current = family

    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().split("\n")

    for lineno, line in enumerate(lines, 1):
        where = f"{path}:{lineno}"
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("TYPE", "HELP"):
                continue  # plain comment
            if parts[1] == "HELP":
                if len(parts) < 3 or not NAME_RE.match(parts[2]):
                    errors.append(f"{where}: malformed HELP line")
                else:
                    enter_group(parts[2], where)
                continue
            if len(parts) != 4 or parts[3] not in TYPES:
                errors.append(f"{where}: malformed TYPE line: {line!r}")
                continue
            name = parts[2]
            if not NAME_RE.match(name):
                errors.append(f"{where}: illegal metric name {name!r}")
            if name in declared:
                errors.append(f"{where}: duplicate TYPE for {name}")
            if name in sampled_families:
                errors.append(f"{where}: TYPE for {name} after its samples")
            enter_group(name, where)
            declared[name] = parts[3]
            continue

        # Sample line: name[{labels}] value [timestamp]
        m = re.match(r"^([^ {]+)(\{(.*)\})? (\S+)( \d+)?$", line)
        if not m:
            errors.append(f"{where}: unparseable sample line: {line!r}")
            continue
        name, _, labelbody, value = m.group(1), m.group(2), m.group(3), m.group(4)
        if not NAME_RE.match(name):
            errors.append(f"{where}: illegal metric name {name!r}")
        labels = parse_labels(labelbody, errors, where) if labelbody else {}
        try:
            fval = float(
                value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            errors.append(f"{where}: non-numeric sample value {value!r}")
            continue

        family = family_of(name, declared)
        if family not in declared and family not in sampled_families:
            errors.append(f"{where}: family {family} is sampled before its "
                          f"TYPE line")
        sampled_families.add(family)
        enter_group(family, where)
        if family in HEALTH_FAMILIES:
            check_health_sample(family, labels, fval, errors, where)
        if family in LATENCY_FAMILIES:
            check_latency_sample(family, labels, fval, errors, where,
                                 stage_quantiles)
        if family in TIMELINE_FAMILIES:
            check_timeline_sample(family, labels, fval, errors, where,
                                  track_extremes)
        if declared.get(family) == "histogram" and name.endswith("_bucket"):
            if "le" not in labels:
                errors.append(f"{where}: histogram bucket without le label")
            else:
                buckets.setdefault((family, tuple(
                    sorted((k, v) for k, v in labels.items() if k != "le")
                )), []).append((labels["le"], float(
                    value.replace("+Inf", "inf"))))

    for stage, q in stage_quantiles.items():
        if "p50" in q and "p99" in q and q["p50"] > q["p99"]:
            errors.append(f"{path}: latency stage {stage} has p50 > p99 "
                          f"({q['p50']!r} > {q['p99']!r})")
        if "p99" in q and "max" in q and q["p99"] > q["max"]:
            errors.append(f"{path}: latency stage {stage} has p99 > max "
                          f"({q['p99']!r} > {q['max']!r})")
    for track, ex in track_extremes.items():
        if "min" in ex and "max" in ex and ex["min"] > ex["max"]:
            errors.append(f"{path}: timeline track {track} has min > max "
                          f"({ex['min']!r} > {ex['max']!r})")

    for (family, _), series in buckets.items():
        if not any(le == "+Inf" for le, _ in series):
            errors.append(f"{path}: histogram {family} lacks an +Inf bucket")
        counts = [c for _, c in series]
        if counts != sorted(counts):
            errors.append(
                f"{path}: histogram {family} buckets not cumulative")

    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        errors = lint(path)
        if errors:
            status = 1
            for e in errors:
                print(e, file=sys.stderr)
        else:
            print(f"{path}: OK")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
