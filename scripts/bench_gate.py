#!/usr/bin/env python3
"""Bench regression gate: fresh run vs the committed BENCH_*.json records.

Runs scripts/bench_json.sh into a temporary directory (never touching the
committed records) and compares every cell against the committed
BENCH_fig10.json / BENCH_fig11.json:

  * baseline_seconds must agree within a x(1 +/- tolerance) ratio;
  * per-config improvement percentages must agree within +/- tolerance
    percentage points.

Default mode is ADVISORY: violations are printed loudly but the exit code
stays 0, because the 1-core CI box is noisy (+/-10% run to run) and a
scheduler hiccup must not turn the whole gate red. Pass --strict to make
violations fatal (use on quiet hardware, or when chasing a suspected
regression).

A malformed committed BENCH_*.json (unparseable JSON, or a record missing
its required schema keys) is fatal EVEN in advisory mode: advisory exists
to absorb scheduler noise on shared runners, and a corrupt committed
record is repo corruption, not noise.

Usage: scripts/bench_gate.py [--strict] [--tolerance PCT] [--skip-run]
                             [--report-out PATH]
  --tolerance PCT   comparison half-width, default 25 (percent / points)
  --skip-run        compare an existing OUT_DIR (env) instead of running
  --report-out PATH mirror all output into PATH (written incrementally, so
                    the report survives a crash mid-comparison — CI points
                    this at ci-artifacts/ and uploads it unconditionally)
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class MalformedRecord(Exception):
    """A committed BENCH_*.json that cannot be trusted as a baseline."""


class _Tee:
    """Mirrors writes to every stream; flushes eagerly so --report-out
    holds everything printed so far even if a later comparison crashes."""

    def __init__(self, *streams):
        self._streams = streams

    def write(self, s):
        for st in self._streams:
            st.write(s)
            st.flush()

    def flush(self):
        for st in self._streams:
            st.flush()


def load(path):
    with open(path) as f:
        return json.load(f)


def load_committed(path, required_keys):
    """Loads a committed record, raising MalformedRecord (fatal in every
    mode) on parse errors or missing schema keys."""
    try:
        rec = load(path)
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as e:
        raise MalformedRecord(f"{os.path.basename(path)}: {e}")
    if not isinstance(rec, dict):
        raise MalformedRecord(
            f"{os.path.basename(path)}: top level is {type(rec).__name__}, "
            "expected an object")
    missing = [k for k in required_keys if k not in rec]
    if missing:
        raise MalformedRecord(
            f"{os.path.basename(path)}: missing required key(s) "
            f"{', '.join(missing)}")
    return rec


def compare_scaling(committed, fresh, tolerance, violations, lines):
    """Advisory comparison of BENCH_scaling.json records.

    Schema (written by `bench_fig11a_scal_configs --scaling --json ...`):
      {"experiment": "scaling", "scale": S, "reps": N, "seed": X,
       "threads": [1, 2, ...],
       "rows": [{"app": "...", "config": "...", "seconds": [...]}, ...]}

    Each (app, config) row's per-thread-count seconds must agree within the
    same ratio tolerance as the baseline comparison. Thread-count lists
    must match exactly — a sweep recorded on a different box shape is a
    different experiment, not a regression.
    """
    if committed.get("threads") != fresh.get("threads"):
        violations.append(
            f"scaling: thread counts differ (committed {committed.get('threads')}"
            f" vs fresh {fresh.get('threads')}); record both on the same box"
        )
        return
    counts = committed.get("threads", [])
    committed_rows = {(r["app"], r["config"]): r for r in committed["rows"]}
    fresh_rows = {(r["app"], r["config"]): r for r in fresh["rows"]}
    for key, crow in committed_rows.items():
        frow = fresh_rows.get(key)
        app_cfg = f"{key[0]}/{key[1]}"
        if frow is None:
            violations.append(f"scaling/{app_cfg}: missing from fresh run")
            continue
        for t, csec, fsec in zip(counts, crow["seconds"], frow["seconds"]):
            ratio = fsec / csec if csec > 0 else float("inf")
            ok = 1.0 / (1.0 + tolerance / 100.0) <= ratio <= 1.0 + tolerance / 100.0
            if not ok:
                violations.append(
                    f"scaling/{app_cfg}@{t}T: {fsec:.4f}s vs committed "
                    f"{csec:.4f}s (x{ratio:.2f})"
                )
            lines.append(
                f"  scaling  {app_cfg:27s} {t:3d}T "
                f"{csec:8.4f}s -> {fsec:8.4f}s  (x{ratio:.2f})"
            )


def compare_txbatch(committed, fresh, tolerance, violations, lines):
    """Advisory comparison of BENCH_txbatch.json records.

    Schema (written by `bench_txbatch_stream --json ...`):
      {"experiment": "txbatch", "scale": S, "threads": T, "reps": N,
       "seed": X, "batch_sizes": [1, 4, 16, 64],
       "rows": [{"app": "...", "batch": B, "seconds": ...,
                 "capture_hit_percent": ..., ...}, ...]}

    Per (app, batch) cell: seconds within the ratio tolerance, and
    capture_hit_percent within +/- tolerance points. The capture curve is a
    deterministic property of the workload, so drifts there mean the merge
    layer or the elision machinery changed behaviour, not the scheduler.
    """
    if committed.get("batch_sizes") != fresh.get("batch_sizes"):
        violations.append(
            f"txbatch: batch sizes differ (committed "
            f"{committed.get('batch_sizes')} vs fresh {fresh.get('batch_sizes')})"
        )
        return
    committed_rows = {(r["app"], r["batch"]): r for r in committed["rows"]}
    fresh_rows = {(r["app"], r["batch"]): r for r in fresh["rows"]}
    for key, crow in committed_rows.items():
        frow = fresh_rows.get(key)
        cell = f"{key[0]}@{key[1]}"
        if frow is None:
            violations.append(f"txbatch/{cell}: missing from fresh run")
            continue
        csec, fsec = crow["seconds"], frow["seconds"]
        ratio = fsec / csec if csec > 0 else float("inf")
        ok = 1.0 / (1.0 + tolerance / 100.0) <= ratio <= 1.0 + tolerance / 100.0
        if not ok:
            violations.append(
                f"txbatch/{cell}: {fsec:.4f}s vs committed {csec:.4f}s "
                f"(x{ratio:.2f})"
            )
        chit, fhit = crow["capture_hit_percent"], frow["capture_hit_percent"]
        if abs(fhit - chit) > tolerance:
            violations.append(
                f"txbatch/{cell}: capture-hit {fhit:.1f}% vs committed "
                f"{chit:.1f}% (delta {fhit - chit:+.1f} points)"
            )
        lines.append(
            f"  txbatch  {cell:20s} {csec:8.4f}s -> {fsec:8.4f}s  "
            f"(x{ratio:.2f})  cap-hit {chit:5.1f}% -> {fhit:5.1f}%"
        )


def compare_durable(committed, fresh, tolerance, violations, lines):
    """Advisory comparison of BENCH_durable.json records.

    Schema (written by `bench_durable --json ...`):
      {"experiment": "durable", "scale": S, "threads": T, "reps": N,
       "seed": X,
       "rows": [{"app": "...", "nondurable_seconds": ...,
                 "durable_seconds": ..., "flushes_elided_percent": ...,
                 "pwbs": ..., "pwbs_nocapture": ..., ...}, ...]}

    Seconds columns are ratio-compared like every other timing cell.
    flushes_elided_percent is compared within +/- tolerance points: the
    elision ratio is a deterministic property of capture analysis on a
    fixed-seed workload, so drift there means the elision rule (or the
    capture machinery feeding it) changed behaviour, not the scheduler.
    """
    committed_rows = {r["app"]: r for r in committed["rows"]}
    fresh_rows = {r["app"]: r for r in fresh["rows"]}
    for app, crow in committed_rows.items():
        frow = fresh_rows.get(app)
        if frow is None:
            violations.append(f"durable/{app}: missing from fresh run")
            continue
        for col in ("nondurable_seconds", "durable_seconds",
                    "durable_nocapture_seconds"):
            csec, fsec = crow[col], frow[col]
            ratio = fsec / csec if csec > 0 else float("inf")
            ok = 1.0 / (1.0 + tolerance / 100.0) <= ratio <= 1.0 + tolerance / 100.0
            if not ok:
                violations.append(
                    f"durable/{app}/{col}: {fsec:.4f}s vs committed "
                    f"{csec:.4f}s (x{ratio:.2f})"
                )
        celide, felide = (crow["flushes_elided_percent"],
                          frow["flushes_elided_percent"])
        if abs(felide - celide) > tolerance:
            violations.append(
                f"durable/{app}: flushes-elided {felide:.1f}% vs committed "
                f"{celide:.1f}% (delta {felide - celide:+.1f} points)"
            )
        lines.append(
            f"  durable  {app:15s} {crow['durable_seconds']:8.4f}s -> "
            f"{frow['durable_seconds']:8.4f}s  elided "
            f"{celide:5.1f}% -> {felide:5.1f}%"
        )


def compare_rows(name, committed, fresh, tolerance, violations, lines):
    committed_rows = {r["app"]: r for r in committed["rows"]}
    fresh_rows = {r["app"]: r for r in fresh["rows"]}
    for app, crow in committed_rows.items():
        frow = fresh_rows.get(app)
        if frow is None:
            violations.append(f"{name}/{app}: missing from fresh run")
            continue
        cbase, fbase = crow["baseline_seconds"], frow["baseline_seconds"]
        ratio = fbase / cbase if cbase > 0 else float("inf")
        base_ok = 1.0 / (1.0 + tolerance / 100.0) <= ratio <= 1.0 + tolerance / 100.0
        if not base_ok:
            violations.append(
                f"{name}/{app}: baseline {fbase:.4f}s vs committed "
                f"{cbase:.4f}s (x{ratio:.2f})"
            )
        for cfg, cimp in crow["improvement_percent"].items():
            fimp = frow["improvement_percent"].get(cfg)
            if fimp is None:
                violations.append(f"{name}/{app}/{cfg}: missing config")
                continue
            delta = fimp - cimp
            if abs(delta) > tolerance:
                violations.append(
                    f"{name}/{app}/{cfg}: improvement {fimp:+.1f}% vs "
                    f"committed {cimp:+.1f}% (delta {delta:+.1f} points)"
                )
            lines.append(
                f"  {name:8s} {app:15s} {cfg:18s} "
                f"{cimp:+8.1f}% -> {fimp:+8.1f}%  ({delta:+6.1f})"
            )


def run(args):
    committed10 = os.path.join(REPO, "BENCH_fig10.json")
    committed11 = os.path.join(REPO, "BENCH_fig11.json")
    for p in (committed10, committed11):
        if not os.path.exists(p):
            print(f"bench_gate: no committed record {p}; nothing to gate")
            return 0

    tmp_ctx = None
    if args.skip_run:
        out_dir = os.environ.get("OUT_DIR", ".")
    else:
        tmp_ctx = tempfile.TemporaryDirectory(prefix="bench_gate_")
        out_dir = tmp_ctx.name
        env = dict(os.environ, OUT_DIR=out_dir)
        print(f"bench_gate: running scripts/bench_json.sh (OUT_DIR={out_dir})")
        subprocess.run(
            [os.path.join(REPO, "scripts", "bench_json.sh")],
            check=True, cwd=REPO, env=env,
        )

    fresh10 = load(os.path.join(out_dir, "BENCH_fig10.json"))
    fresh11 = load(os.path.join(out_dir, "BENCH_fig11.json"))
    c10 = load_committed(committed10, ("rows",))
    c11 = load_committed(committed11, ("fig11a", "fig11b"))
    for part in ("fig11a", "fig11b"):
        if not isinstance(c11[part], dict) or "rows" not in c11[part]:
            raise MalformedRecord(
                f"BENCH_fig11.json: '{part}' lacks a 'rows' table")

    violations, lines = [], []
    compare_rows("fig10", c10, fresh10, args.tolerance, violations, lines)
    compare_rows("fig11a", c11["fig11a"], fresh11["fig11a"], args.tolerance,
                 violations, lines)
    compare_rows("fig11b", c11["fig11b"], fresh11["fig11b"], args.tolerance,
                 violations, lines)

    # BENCH_scaling.json is optional until a multi-core box records it: the
    # schema is wired now so that first session only has to run the sweep.
    committed_scaling = os.path.join(REPO, "BENCH_scaling.json")
    fresh_scaling = os.path.join(out_dir, "BENCH_scaling.json")
    if os.path.exists(committed_scaling):
        if os.path.exists(fresh_scaling):
            compare_scaling(
                load_committed(committed_scaling, ("threads", "rows")),
                load(fresh_scaling), args.tolerance, violations, lines)
        else:
            print("bench_gate: committed BENCH_scaling.json present but the "
                  "fresh run produced none; skipping (advisory)")
    else:
        print("bench_gate: no committed BENCH_scaling.json (expected until a "
              "multi-core box records one); skipping scaling comparison")

    # BENCH_txbatch.json is compared advisorily, like the scaling record:
    # the merge-factor sweep lives or dies by its capture curve, which is
    # deterministic, but the seconds column shares the 1-core box's noise.
    committed_txbatch = os.path.join(REPO, "BENCH_txbatch.json")
    fresh_txbatch = os.path.join(out_dir, "BENCH_txbatch.json")
    if os.path.exists(committed_txbatch):
        if os.path.exists(fresh_txbatch):
            compare_txbatch(
                load_committed(committed_txbatch, ("batch_sizes", "rows")),
                load(fresh_txbatch), args.tolerance, violations, lines)
        else:
            print("bench_gate: committed BENCH_txbatch.json present but the "
                  "fresh run produced none; skipping (advisory)")
    else:
        print("bench_gate: no committed BENCH_txbatch.json; skipping txbatch "
              "comparison")

    # BENCH_durable.json: timing ratios plus the deterministic
    # flushes-elided column. Advisory and optional, like its siblings.
    committed_durable = os.path.join(REPO, "BENCH_durable.json")
    fresh_durable = os.path.join(out_dir, "BENCH_durable.json")
    if os.path.exists(committed_durable):
        if os.path.exists(fresh_durable):
            compare_durable(load_committed(committed_durable, ("rows",)),
                            load(fresh_durable), args.tolerance, violations,
                            lines)
        else:
            print("bench_gate: committed BENCH_durable.json present but the "
                  "fresh run produced none; skipping (advisory)")
    else:
        print("bench_gate: no committed BENCH_durable.json; skipping "
              "durable comparison")

    print("bench_gate: committed -> fresh improvement percentages:")
    print("\n".join(lines))
    if tmp_ctx is not None:
        tmp_ctx.cleanup()

    if violations:
        print("!" * 64)
        print(f"bench_gate: {len(violations)} cell(s) outside the "
              f"+/-{args.tolerance:g} tolerance:")
        for v in violations:
            print(f"!!! {v}")
        print("!" * 64)
        if args.strict:
            return 1
        print("bench_gate: ADVISORY mode (1-core CI box): not failing the "
              "build; rerun with --strict to enforce")
        return 0

    print(f"bench_gate: all cells within +/-{args.tolerance:g}; green")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--strict", action="store_true",
                    help="exit non-zero on violations")
    ap.add_argument("--tolerance", type=float, default=25.0,
                    help="half-width in percent/points (default 25)")
    ap.add_argument("--skip-run", action="store_true",
                    help="compare an existing OUT_DIR instead of running")
    ap.add_argument("--report-out", metavar="PATH",
                    help="mirror all output into PATH (crash-safe)")
    args = ap.parse_args()

    report = None
    orig_stdout = sys.stdout
    if args.report_out:
        report_dir = os.path.dirname(args.report_out)
        if report_dir:
            os.makedirs(report_dir, exist_ok=True)
        report = open(args.report_out, "w")
        sys.stdout = _Tee(orig_stdout, report)
    try:
        return run(args)
    except MalformedRecord as e:
        # Fatal regardless of --strict: see the module docstring.
        print(f"bench_gate: FATAL: malformed committed record: {e}")
        print("bench_gate: advisory mode does not cover repo corruption; "
              "fix or re-record the committed BENCH_*.json")
        return 1
    finally:
        sys.stdout = orig_stdout
        if report is not None:
            report.close()


if __name__ == "__main__":
    sys.exit(main())
