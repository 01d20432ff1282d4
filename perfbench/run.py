#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload sponza-replay|ar-live \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the runner
(perfbench/CMakeLists.txt, which adds the repository as a subdirectory)
into $CARGO_TARGET_DIR, default .bench_build/. The runner runs the
workload and checks its outputs; this script prints every metric with
its unit, the host record and the checks, keeps a full report under the
build directory, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A per-layer metric reads 0 on a workload
whose path does not include that layer (layers.json, "measured_on").
Exit code 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
DRIVER_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

# Per-workload names for the generic end-to-end metrics, printed
# beside the metrics they alias.
ALIASES = {
    "ar-live": {"mtp_p50_ms": "frame_ms_p50", "mtp_p99_ms": "frame_ms_p99",
                "display_hz": "frames_per_s"},
}


def load_json(name):
    path = os.path.join(ROOT, name) if name == "BENCHMARK.json" \
        else os.path.join(HERE, name)
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def spec_problems(spec, layers):
    """Everything wrong with BENCHMARK.json and layers.json, as text."""
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads",
                "end_to_end", "per_layer"}
    if set(spec) != expected:
        problems.append("BENCHMARK.json keys %s" % sorted(spec))
        return problems
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command must be 1-32 strings of <= 200 chars")
    for c in cmd[1:]:
        if c.startswith("/") or ".." in c.split("/"):
            problems.append("command argument %r leaves the checkout" % c)
        elif os.sep in c and not any(
                c == p or c.startswith(p + "/") for p in spec["paths"]):
            problems.append("command names %r outside paths" % c)
    paths = spec["paths"]
    if not 1 <= len(paths) <= 16:
        problems.append("paths must hold 1-16 directories")
    for p in paths:
        if not PATH_RE.match(p) or p.startswith("/") or ".." in p.split("/"):
            problems.append("bad path %r" % p)
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        problems.append("run_seconds must be a whole number 1-60")

    names = set()

    def named(entry, keys, kind):
        if set(entry) != keys:
            problems.append("%s %r has keys %s" % (kind, entry.get("name"),
                                                   sorted(entry)))
        name = entry.get("name", "")
        if not NAME_RE.match(name):
            problems.append("%s name %r breaks the grammar" % (kind, name))
        if name in names:
            problems.append("name %r used twice" % name)
        names.add(name)

    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        problems.append("2-8 workloads required")
    for w in workloads:
        named(w, {"name", "why"}, "workload")
        why = w.get("why", "")
        if not why or len(why) > 200 or "\n" in why:
            problems.append("workload %r why must be one line <= 200"
                            % w.get("name"))
    for kind, lo, hi, keys in (
            ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
            ("per_layer", 1, 128, {"name", "unit", "better"})):
        metrics = spec[kind]
        if not lo <= len(metrics) <= hi:
            problems.append("%s must hold %d-%d metrics" % (kind, lo, hi))
        for m in metrics:
            named(m, keys, kind)
            if not UNIT_RE.match(m.get("unit", "")):
                problems.append("unit %r of %r breaks the grammar"
                                % (m.get("unit"), m.get("name")))
            if m.get("better") not in ("lower", "higher"):
                problems.append("better of %r" % m.get("name"))
            if kind == "end_to_end" and not (
                    isinstance(m.get("bound"), (int, float)) and
                    0 < m["bound"] <= 0.25):
                problems.append("bound of %r must be in (0, 0.25]"
                                % m.get("name"))
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        problems.append("setup_s (s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    if len(json.dumps(spec, indent=2)) > 64 * 1024:
        problems.append("BENCHMARK.json exceeds 64 KiB")

    # The layer -> end-to-end prediction map refers to declared names.
    workload_names = {w["name"] for w in workloads}
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    table = layers.get("per_layer", {})
    if set(table) != per_layer:
        problems.append("layers.json and per_layer differ: %s" % sorted(
            set(table) ^ per_layer))
    for name, row in table.items():
        for w in row.get("measured_on", []):
            if w not in workload_names:
                problems.append("%s measured on unknown workload %r"
                                % (name, w))
        for move in row.get("moves", []):
            if move.get("metric") not in e2e | per_layer:
                problems.append("%s moves undeclared metric %r"
                                % (name, move.get("metric")))
            for w in move.get("on", []):
                if w not in workload_names:
                    problems.append("%s moves on unknown workload %r"
                                    % (name, w))
    for alias_workload, aliases in ALIASES.items():
        if alias_workload not in workload_names:
            problems.append("alias for unknown workload %r" % alias_workload)
        for target in aliases.values():
            if target not in e2e:
                problems.append("alias target %r undeclared" % target)
    return problems


def run_cmd(cmd, timeout, **kwargs):
    """Run @cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out, err


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the runner; return its path."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    steps = []
    # A configure that failed half way leaves a cache but no Makefile.
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j4", "--target",
                  "perfbench_runner"])
    with open(log, "w", encoding="utf-8") as f:
        for step in steps:
            rc, out, err = run_cmd(step, BUILD_TIMEOUT_S)
            f.write(out + err)
            if rc != 0:
                tail = (out + err).strip().splitlines()[-20:]
                sys.stderr.write("perfbench: build step failed: %s\n%s\n"
                                 % (" ".join(step), "\n".join(tail)))
                return None
    return os.path.join(bdir, "perfbench_runner")


def source_digest():
    """Digest of the sources the runner builds from (git-free checkouts)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        base = os.path.join(ROOT, top)
        files = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs
            if "__pycache__" not in d)
        for path in files:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        rc, out, _ = run_cmd(["git", "-C", ROOT, "rev-parse", "HEAD"], 10)
    except OSError:
        return "none"
    return out.strip() if rc == 0 else "none (not a git checkout)"


def runner_self_test(runner):
    rc, out, err = run_cmd([runner, "--self-test"], 60)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return rc == 0


def self_test():
    import unittest
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    runner = build()
    return ok and runner is not None and runner_self_test(runner)


def select_metrics(spec, layers, workload, trace, measured):
    """The declared metric set from the runner's report, or raise."""
    out = {}
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    table = layers["per_layer"]
    for entry in entries:
        name, unit = entry["name"], entry["unit"]
        got = measured.get(name)
        if trace and workload not in table[name]["measured_on"]:
            # The layer is not on this workload's path.
            value = 0.0
        elif got is None or got["value"] is None:
            raise ValueError("runner did not report %s" % name)
        else:
            value = got["value"]
            if got["unit"] != unit:
                raise ValueError("%s unit %r, declared %r"
                                 % (name, got["unit"], unit))
            if value == -1.0 and re.search(r"_p\d+$", name):
                raise ValueError("%s: too few samples for a supported "
                                 "quantile" % name)
            if not math.isfinite(value):
                raise ValueError("%s is not finite" % name)
            if not trace and value <= 0:
                raise ValueError("end-to-end metric %s read %r" % (name, value))
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec, layers = load_json("BENCHMARK.json"), load_json("layers.json")
    problems = spec_problems(spec, layers)
    if problems:
        sys.stderr.write("perfbench: invalid spec:\n  %s\n"
                         % "\n  ".join(problems))
        return 1
    if args.self_test:
        return 0 if self_test() else 1
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        ap.error("--workload must be one of %s" % ", ".join(workloads))
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    seconds = args.seconds if args.seconds else spec["run_seconds"]

    runner = build()
    if runner is None:
        return 1
    out_dir = os.path.join(build_dir(), "runs", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [runner, "--workload", args.workload, "--seed",
           str(args.seed % 2**32), "--seconds", repr(seconds), "--trace",
           str(args.trace), "--out", out_dir]
    rc, out, err = run_cmd(cmd, DRIVER_TIMEOUT_S, cwd=ROOT)
    sys.stderr.write(err)
    if rc is None:
        sys.stderr.write("perfbench: runner timed out\n")
        return 1
    try:
        report = json.loads(out.strip().splitlines()[-1])
        metrics = select_metrics(spec, layers, args.workload, bool(args.trace),
                                 report["metrics"])
    except (IndexError, KeyError, ValueError) as e:
        sys.stderr.write("perfbench: unusable runner report (exit %s): %s\n"
                         % (rc, e))
        return 1

    notes = report["notes"]
    host = {"cpu_model": notes.get("host.cpu_model"),
            "nproc": notes.get("host.nproc"),
            "simd_backend": notes.get("host.simd_backend"),
            "build_type": notes.get("host.build_type"),
            "git_sha": git_sha(), "source_digest": source_digest()}
    checks = report["checks"]
    correct = rc == 0 and bool(checks) and all(c["ok"] for c in checks)
    result = {"correct": correct, "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": metrics}
    with open(os.path.join(out_dir, "report.json"), "w",
              encoding="utf-8") as f:
        json.dump({"host": host, "workload": args.workload,
                   "seed": args.seed, "trace": args.trace,
                   "seconds": seconds, "runner": report, "result": result},
                  f, indent=2)

    print("perfbench %s seed=%d trace=%d seconds=%g" % (
        args.workload, args.seed, args.trace, seconds))
    print("host: " + " ".join("%s=%s" % (k, json.dumps(v))
                              for k, v in host.items()))
    for c in checks:
        print("check %-4s %s: %s" % ("ok" if c["ok"] else "FAIL", c["name"],
                                     c["detail"]))
    for k in sorted(notes):
        if not k.startswith("host."):
            print("note %s = %s" % (k, notes[k]))
    for name, m in sorted(report["metrics"].items()):
        print("metric %s = %s %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        for alias, target in ALIASES.get(args.workload, {}).items():
            print("metric %s = %s %s (alias of %s)" % (
                alias, metrics[target]["value"], metrics[target]["unit"],
                target))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
