#!/usr/bin/env python3
"""Benchmark entry point for the TSP simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload resnet50|serve-mix|fleet-soak \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and the simulator sources it links) into
.bench_build/perfbench on first use, runs the workload and prints the
metrics. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

--trace 1 runs the workload twice with the same seed, untraced and
then traced. The traced run must reproduce the untraced run's
simulated results exactly; its per-layer metrics are reported, and the
difference on each host metric is printed as the tracing overhead.

Every run also checks its outputs against the src/ref golden, that no
admission prediction mismatched, and that its simulated results equal
those of any earlier run of the same seed and sources in this checkout.
Any failed check makes "correct" false and the exit code 1. A build
failure exits 2 without printing a result.

perfbench/README.md explains the workloads and every metric.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "tsp-perfbench"
WORKLOADS = ("resnet50", "serve-mix", "fleet-soak")

# Whole invocation must end within this many seconds after the build.
BUDGET_S = 170.0

# End-to-end metrics: (name, unit). The first five are host metrics.
HOST = [
    ("setup_s", "s"),
    ("first_req_ms", "ms"),
    ("req_ms.p50", "ms"),
    ("host_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
]
SIM = [
    ("chip_cycles", "cycles"),
    ("energy_uj", "uJ"),
    ("served_share", "ratio"),
    ("virt_us.p50", "virt_us"),
    ("virt_us.p99", "virt_us"),
]

PER_LAYER = [
    ("model.build_ms", "ms"),
    ("compiler.lower_ms", "ms"),
    ("compiler.instructions", "count"),
    ("isa.asm_ms", "ms"),
    ("runtime.construct_ms", "ms"),
    ("runtime.reset_ms.p50", "ms"),
    ("runtime.write_ms.p50", "ms"),
    ("runtime.read_ms.p50", "ms"),
    ("sim.record_ms", "ms"),
    ("sim.record_ns_per_cycle", "ns/cycle"),
    ("sim.replay_ms.p50", "ms"),
    ("sim.replay_ns_per_cycle", "ns/cycle"),
    ("sim.trace_mb", "MiB"),
    ("sim.trace_events", "count"),
    ("mxm.maccs", "count"),
    ("vxm.lane_ops", "count"),
    ("sxm.bytes", "bytes"),
    ("mem.sram_accesses", "count"),
    ("stream.hops", "count"),
    ("icu.dispatched", "count"),
    ("icu.nop_cycles", "cycles"),
    ("icu.parked_cycles", "cycles"),
] + [
    (f"sim.layer.{kind}.{m}", unit)
    for kind in ("conv2d", "residual", "maxpool", "gap")
    for m, unit in (("chip_cycles", "cycles"), ("step_ms", "ms"))
] + [
    ("graph.compile_ms", "ms"),
    ("graph.compiles", "count"),
    ("serve.evictions", "count"),
    ("serve.submit_us.p50", "us"),
    ("serve.submit_busy_share", "ratio"),
    ("serve.drain_ms", "ms"),
    ("sim.trace_replays", "count"),
    ("sim.trace_records", "count"),
    ("sim.trace_entries", "count"),
    ("serve.batch_mean", "samples"),
    ("serve.preemptions", "count"),
    ("serve.rejected_deadline", "count"),
    ("serve.queue_us.p99", "virt_us"),
    ("runtime.run_us.p50", "us"),
    ("runtime.reset_batch_us.p50", "us"),
    ("runtime.engine_busy_share", "ratio"),
    ("fleet.submit_us.p50", "us"),
    ("fleet.advance_us.p50", "us"),
    ("fleet.submit_busy_share", "ratio"),
    ("fleet.pods_launched", "count"),
    ("fleet.shed", "count"),
    ("serve.retries", "count"),
    ("mem.ecc_corrected", "count"),
    ("mem.machine_checks", "count"),
    ("c2c.sent", "count"),
    ("ref.check_ms", "ms"),
]

# The paper's ResNet-50 batch-1 latency (section V): < 49 us.
PAPER_RESNET50_US = 49.0


def log(msg):
    print(msg, flush=True)


def build():
    """Configures and builds tsp-perfbench; exits 2 on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(BUILD / "build.lock", "w") as lock, \
            open(BUILD / "build.log", "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "tsp-perfbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                out.flush()
                tail = (BUILD / "build.log").read_text().splitlines()
                sys.stderr.write("\n".join(tail[-30:]) + "\n")
                sys.stderr.write("perfbench: build failed\n")
                sys.exit(2)


def run_pass(args, traced, deadline):
    """Runs the workload once; returns the binary's report."""
    out = BUILD / "out"
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{'traced' if traced else 'untraced'}"
    report = out / f"{tag}.json"
    if report.exists():
        report.unlink()
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", str(report)]
    if traced:
        cmd += ["--traced", "--artifacts", str(out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        sys.exit(f"perfbench: no time left for {tag}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {tag} did not finish within the time budget")
    for line in proc.stdout.splitlines():
        log(f"  | {line}")
    if proc.returncode != 0 or not report.exists():
        sys.exit(f"perfbench: {tag} exited with {proc.returncode}")
    return json.loads(report.read_text())


def host_metrics(res):
    h = res["host"]
    return {
        "setup_s": statistics.median(h["setup_s"]),
        "first_req_ms": statistics.median(h["first_req_ms"]),
        "req_ms.p50": statistics.median(h["req_ms"]),
        "host_rps": h["host_rps"],
        "peak_rss_mb": h["peak_rss_mb"],
    }


def sources_digest():
    """Hashes every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def simulated(res):
    """What must be identical for one seed on every run."""
    return {"sim": res["sim"], "digests": res["digests"],
            "counts": res["counts"]}


def check_against_record(args, sim, errors):
    """Compares with (or stores) the first run of this seed."""
    records = BUILD / "records"
    records.mkdir(exist_ok=True)
    path = records / (f"{args.workload}-seed{args.seed}-"
                      f"s{args.seconds}-{sources_digest()}.json")
    if path.exists():
        if json.loads(path.read_text()) != sim:
            errors.append("simulated results differ from an earlier run "
                          f"of the same seed ({path.name})")
        return
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(sim, sort_keys=True))
    tmp.replace(path)


def checks(res, errors):
    c = res["checks"]
    tag = "traced" if res["traced"] else "untraced"
    errors.extend(f"{tag}: {e}" for e in c["errors"])
    if c["output_mismatches"]:
        errors.append(f"{tag}: {c['output_mismatches']} of "
                      f"{c['outputs_checked']} outputs differ from the "
                      "src/ref golden")
    if c["prediction_mismatches"]:
        errors.append(f"{tag}: {c['prediction_mismatches']} prediction "
                      "mismatches")
    if not res["traced"] and c["outputs_checked"] == 0:
        errors.append("no output was checked")


def print_table(title, values, units, untraced=None):
    log(title)
    for name, unit in units:
        v = values[name]
        extra = ""
        if untraced is not None and name in untraced:
            d = v - untraced[name]
            base = untraced[name]
            pct = f" ({100.0 * d / base:+.1f}%)" if base else ""
            extra = f"   tracing overhead {d:+.6g}{pct}"
        log(f"  {name:32s} {v:16.6g} {unit}{extra}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    build()
    deadline = time.monotonic() + BUDGET_S
    errors = []

    base = run_pass(args, False, deadline)
    checks(base, errors)
    check_against_record(args, simulated(base), errors)
    host = host_metrics(base)
    e2e = dict(host)
    e2e.update(base["sim"])
    notes = base["notes"]

    log(f"workload {args.workload}, seed {args.seed}, "
        f"{args.seconds} s; {notes.get('threads', 0):g} threads of "
        f"{notes.get('nproc', 0):g} CPUs; SIMD kernels "
        f"{notes.get('simd_tier', '?')} "
        f"(simdKernelsEnabled={notes.get('simd_kernels_enabled', 0):g}, "
        f"cpuHasAvx512Vnni={notes.get('cpu_has_avx512_vnni', 0):g})")
    c = base["counts"]
    log(f"requests: {c['attempted']} attempted, {c['served']} served, "
        f"{c['refused']} refused, {c['failed']} failed; "
        f"{base['checks']['outputs_checked']} outputs checked bit-exact "
        "against src/ref")
    if args.workload == "resnet50":
        us = base["sim"]["virt_us.p50"]
        log(f"accuracy: {base['sim']['chip_cycles']:.0f} chip cycles = "
            f"{us:.2f} us at 1 GHz vs the paper's <{PAPER_RESNET50_US:g} us "
            f"(~{PAPER_RESNET50_US * 1000:.0f} cycles), "
            f"{us / PAPER_RESNET50_US:.2f}x slower")
    log("outputs are validated bit-exact against src/ref; timing is "
        "otherwise unvalidated")
    print_table("end-to-end metrics (untraced run):", e2e, HOST + SIM)

    if args.trace:
        traced = run_pass(args, True, deadline)
        checks(traced, errors)
        if simulated(traced) != simulated(base):
            errors.append("the traced run's simulated results differ "
                          "from the untraced run's")
        layers = {name: 0.0 for name, _ in PER_LAYER}
        layers.update({k: v for k, v in traced["layers"].items()
                       if k in layers})
        layers["ref.check_ms"] = notes.get("ref.check_ms", 0.0)
        if args.workload == "serve-mix":
            a, b = base["layers"], traced["layers"]
            log("trace cache (measured; may differ between runs of one "
                "seed, see perfbench/README.md): untraced vs traced "
                f"{a['sim.trace_records']:g} vs {b['sim.trace_records']:g}"
                f" records, {a['sim.trace_entries']:g} vs "
                f"{b['sim.trace_entries']:g} cached traces")
        print_table("host metrics of the traced run:",
                    host_metrics(traced), HOST, untraced=host)
        print_table("per-layer metrics (traced run; 0 = not on this "
                    "workload's path):", layers, PER_LAYER)
        metrics, units, counts = layers, PER_LAYER, traced["counts"]
    else:
        metrics, units, counts = e2e, HOST + SIM, c

    for e in errors:
        log(f"CHECK FAILED: {e}")
    correct = not errors
    result = {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units},
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
