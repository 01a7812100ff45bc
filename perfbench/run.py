#!/usr/bin/env python3
"""The repository benchmark: three user workloads of the GraphDynS
reproduction, each timed end to end and checked for correct output.

    python3 perfbench/run.py --workload matrix|simd-mix|prepare \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the libraries, the gds_simd
daemon and perfbench_tool into .bench_build/perfbench (CARGO_TARGET_DIR
overrides .bench_build), works in a fresh directory under .bench_run,
prints one line per metric and, last, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of an untraced pass and records no span; --trace 1
runs an untraced and then a traced pass and reports the per-layer
metrics of the traced one, writing its spans to .bench_run/traces/. See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import socket
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))
# Set-ups per run; setup_s is their median. prepare's set-up is a ~5 ms
# process start, so it takes more of them.
SETUP_REPS = {"matrix": 5, "simd-mix": 5, "prepare": 25}
MATRIX_SCALE = 64
MATRIX_DATASETS = ("FR", "PK", "LJ", "HO", "IN", "OR")
VALIDATE_DATASETS = ("FR", "PK")
# GraphDynS geometric-mean speedups the paper reports (Fig. 6).
PAPER_SPEEDUP_GI = 1.9
PAPER_SPEEDUP_GUNROCK = 4.4
# simd-mix runs whole rounds of its job list (MixPlan), one round per
# this many seconds of --seconds: the measured time per round of the
# 4-thread machine the benchmark was sized on. Whole rounds keep the work
# the same for every seed and every commit.
SIMD_ROUND_SECONDS = 4.0
PREPARE_DATASET = "RM22"
# Fresh-process loads per prepare pass at the least, however long the
# generation took: enough for a steady median and a tail percentile.
PREPARE_MIN_LOADS = 64
# Σ neighbour ids of GDS_SCALE=1 RM22, from bench_dataset --measure-load.
RM22_CHECKSUM = "140267255448037"
RM22_VERTICES = 4194304
RM22_EDGES = 67108864

E2E = [("setup_s", "s"), ("wall_s", "s"), ("jobs_per_s", "jobs/s"),
       ("job_p50_s", "s"), ("job_tail_s", "s"), ("peak_rss_mb", "MiB")]
LAYER = [
    ("sim_cycles_per_s", "cycles/s"), ("err_speedup_gi", "%"),
    ("err_speedup_gunrock", "%"), ("failed_ratio", "ratio"),
    ("graph.generate_s", "s"), ("graph.generate_edges_per_s", "edges/s"),
    ("graph.save_s", "s"), ("graph.load_s", "s"), ("graph.scan_s", "s"),
    ("graph.mapped_mb", "MiB"), ("graph.heap_mb", "MiB"),
    ("harness.cell_load_s", "s"), ("harness.critical_cell_s", "s"),
    ("harness.pool_efficiency", "ratio"), ("harness.cache_store_s", "s"),
    ("harness.cache_lookup_s", "s"), ("harness.warm_matrix_s", "s"),
    ("core.sim_s", "s"), ("core.cycles_per_s", "cycles/s"),
    ("core.sim_cycles", "cycles"),
    ("baseline.graphicionado.sim_s", "s"),
    ("baseline.graphicionado.cycles_per_s", "cycles/s"),
    ("baseline.graphicionado.sim_cycles", "cycles"),
    ("baseline.gunrock.sim_s", "s"),
    ("sim.skipped_ratio", "ratio"), ("sim.skip_windows", "count"),
    ("mem.bytes", "B"), ("mem.bw_util_mean", "ratio"),
    ("energy.account_s", "s"), ("energy.gds_joules_gm", "J"),
    ("algo.validate_s", "s"),
    ("svc.submit_rtt_s", "s"), ("svc.run_p50_s", "s"),
    ("svc.queue_wait_p50_s", "s"), ("svc.load_p50_s", "s"),
    ("svc.cache_hit_ratio", "ratio"), ("svc.worker_busy_ratio", "ratio"),
    ("svc.rejected_ratio", "ratio"), ("svc.protocol_overhead_s", "s"),
    ("obs.trace_overhead", "ratio"),
]


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure, ...)."""


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def now_us():
    return time.monotonic() * 1e6


class Spans:
    """Spans kept in memory: name, track, start/end (CLOCK_MONOTONIC us)
    and the index of the parent span (-1 for a root). A span is handed
    out as its dict; while `recording` is off a span only times its
    call and is not kept."""

    def __init__(self):
        self.items = []
        self.recording = True

    def record(self, name, track, start_us, end_us, parent=None):
        span = {"name": name, "track": track, "start_us": start_us,
                "end_us": end_us, "parent": parent["id"] if parent else -1,
                "id": -1}
        if self.recording:
            span["id"] = len(self.items)
            self.items.append(span)
        return span

    def begin(self, name, track, parent=None):
        return self.record(name, track, now_us(), None, parent)

    def end(self, span):
        span["end_us"] = now_us()
        return (span["end_us"] - span["start_us"]) * 1e-6

    def adopt(self, spans, parent, prefix):
        """Append a tool's spans, re-rooted under `parent`."""
        base = len(self.items)
        for s in spans:
            s = dict(s, track=prefix + s["track"], id=len(self.items))
            s["parent"] = (parent["id"] if s["parent"] < 0
                           else base + s["parent"])
            self.items.append(s)


class Bench:
    def __init__(self, args):
        self.args = args
        build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.build_dir = os.path.join(ROOT, build_root, "perfbench")
        self.tool_bin = os.path.join(self.build_dir, "perfbench_tool")
        self.simd_bin = os.path.join(self.build_dir, "gds_simd")
        self.run_dir = os.path.join(
            ROOT, ".bench_run", "%s-seed%d-%d" % (args.workload, args.seed,
                                                  os.getpid()))
        self.spans = Spans()
        self.live = []   # child processes not yet reaped
        self.problems = []
        self.attempted = 0
        self.failed = 0

    # ---------------------------------------------------------------
    # Processes
    # ---------------------------------------------------------------

    def env(self, scale):
        env = dict(os.environ)
        env["GDS_SCALE"] = str(scale)
        env["GDS_JOBS"] = str(NPROC)
        return env

    def spawn(self, argv, cwd, scale, stdout=subprocess.DEVNULL):
        err = open(os.path.join(cwd, "stderr.log"), "ab")
        try:
            p = subprocess.Popen(argv, cwd=cwd, env=self.env(scale),
                                 stdout=stdout, stderr=err)
        finally:
            err.close()
        self.live.append(p)
        return p

    def reap(self, p):
        """Wait for `p`; returns (exit status, peak RSS in MiB)."""
        if p.returncode is not None:  # already reaped by Popen.poll()
            self.live.remove(p)
            return p.returncode, 0.0
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(p)
        return p.returncode, usage.ru_maxrss / 1024.0

    def tool(self, args, cwd, scale, parent=None):
        """Run one perfbench_tool step. Returns (result, wall s, RSS MiB)."""
        span = self.spans.begin("tool." + args[0], "bench", parent)
        quiet = [] if self.spans.recording else ["--no-spans"]
        p = self.spawn([self.tool_bin] + quiet + args, cwd, scale,
                       stdout=subprocess.PIPE)
        out = p.stdout.read()
        p.stdout.close()
        code, rss = self.reap(p)
        wall = self.spans.end(span)
        if code != 0:
            raise BenchError("perfbench_tool %s exited %d (see %s)" % (
                " ".join(args), code, os.path.join(cwd, "stderr.log")))
        result = json.loads(out.decode().strip().splitlines()[-1])
        self.spans.adopt(result.pop("spans"), span, args[0] + ":")
        return result, wall, rss

    def stop_all(self):
        for p in list(self.live):
            p.kill()
            self.reap(p)

    # ---------------------------------------------------------------
    # Build, provenance, run directories
    # ---------------------------------------------------------------

    def build(self):
        for needed in ("src/CMakeLists.txt", "examples/gds_simd.cpp"):
            if not os.path.exists(os.path.join(ROOT, needed)):
                raise BenchError("no repository sources here (%s missing)"
                                 % needed)
        os.makedirs(self.build_dir, exist_ok=True)
        steps = [["cmake", "-S", HERE, "-B", self.build_dir],
                 ["cmake", "--build", self.build_dir, "-j", str(NPROC)]]
        if os.path.exists(os.path.join(self.build_dir, "CMakeCache.txt")):
            steps = steps[1:]
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))

    def provenance(self, cwd):
        prov, _, _ = self.tool(["provenance"], cwd, MATRIX_SCALE)
        if prov["sanitizer"]:
            raise BenchError("sanitizer build (%s): it measures a different "
                             "program; refusing" % prov["cxx_flags"])
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        prov["git_sha"] = (sha.stdout.strip() if sha.returncode == 0
                           else prov["build_git_sha"])
        prov.update(nproc=NPROC, seed=self.args.seed,
                    workload=self.args.workload)
        return prov

    def fresh_dir(self, name):
        path = os.path.join(self.run_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def link_datasets(self, src, dst):
        for f in os.listdir(src):
            if f.startswith("gds_dataset_"):
                os.link(os.path.join(src, f), os.path.join(dst, f))

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)

    # ---------------------------------------------------------------
    # Set-up
    # ---------------------------------------------------------------

    def setup(self):
        """Repeat the workload's set-up; returns per-rep seconds and the
        per-rep graph-layer figures of the dataset generation."""
        times, graph = [], []
        for rep in range(SETUP_REPS[self.args.workload]):
            span = self.spans.begin("setup", "bench")
            t0 = time.monotonic()
            d = self.fresh_dir("setup")
            self.provenance(d)
            names = {"matrix": MATRIX_DATASETS,
                     "simd-mix": benchlib.MIX_DATASETS}.get(
                         self.args.workload)
            if names:
                gen, _, _ = self.tool(["gen-datasets"] + list(names), d,
                                      MATRIX_SCALE, span)
                graph.append(gen)
            if self.args.workload == "simd-mix":
                daemon = Daemon(self, d, traced=False)
                daemon.start()
                times.append(time.monotonic() - t0)
                daemon.shutdown()
            else:
                times.append(time.monotonic() - t0)
            self.spans.end(span)
        return times, graph

    # ---------------------------------------------------------------
    # Workloads
    # ---------------------------------------------------------------

    def check_matrix(self, records):
        """Count the cells that failed or differ from the golden table."""
        self.attempted += len(records)
        bad = {benchlib.cell_name(r) for r in records if r["status"] != "ok"}
        with open(os.path.join(HERE, "golden_matrix.json")) as f:
            golden = json.load(f)["cells"]
        for diff in benchlib.golden_diff(golden, records):
            self.problems.append("golden " + diff)
            bad.add(diff.split(":")[0])
        for cell in bad:
            self.fail("matrix cell %s wrong" % cell)

    def matrix_pass(self, traced):
        # One cold matrix in a fresh directory: it cannot be cut shorter
        # without changing what it measures.
        d = self.fresh_dir("matrix-traced" if traced else "matrix")
        self.link_datasets(os.path.join(self.run_dir, "setup"), d)
        span = self.spans.begin("pass.matrix", "bench")
        run, process_s, rss = self.tool(["matrix"], d, MATRIX_SCALE, span)
        self.spans.end(span)
        records = run["records"]
        self.check_matrix(records)

        # Direct runs of the same cells, outside the timed region.
        mark = len(self.spans.items)
        val, _, _ = self.tool(["validate"] + list(VALIDATE_DATASETS), d,
                              MATRIX_SCALE)
        by_cell = {benchlib.cell_name(r): r for r in records}
        self.attempted += len(val["runs"])
        for v in val["runs"]:
            name = benchlib.cell_name(v)
            rec = by_cell.get(name)
            if not (v["completed"] and v["valid"]):
                self.fail("validate %s: %s" % (name, v["message"]))
            elif rec is None or v["cycles"] != cycles(rec) or \
                    v["iterations"] != rec["iterations"]:
                self.fail("validate %s: direct run differs from the "
                          "matrix cell" % name)

        sims = {s: [r for r in records
                    if r["system"] == s and r["status"] == "ok"]
                for s in ("GraphDynS", "Graphicionado", "Gunrock")}
        walls = [cell_wall(r) if r["status"] == "ok" else math.inf
                 for r in records]
        accel = sims["GraphDynS"] + sims["Graphicionado"]
        out = {"wall_s": run["wall_s"],
               # The matrix process's wall, span output included: what
               # obs.trace_overhead compares.
               "pass_wall_s": process_s,
               "jobs_per_s": len(records) / run["wall_s"],
               "job_p50_s": benchlib.median(walls),
               "job_tail": benchlib.tail(walls),
               "peak_rss_mb": rss,
               "sim_cycles_per_s": sum(cycles(r) for r in accel) /
               sum(r["wallSimSeconds"] for r in accel),
               "err_speedup_gi": speedup_error(sims, "Graphicionado",
                                               PAPER_SPEEDUP_GI),
               "err_speedup_gunrock": speedup_error(sims, "Gunrock",
                                                    PAPER_SPEEDUP_GUNROCK)}
        if not traced:
            return out

        warm, _, _ = self.tool(["matrix", "--warm"], d, MATRIX_SCALE)
        micro, _, _ = self.tool(["cache-micro", "--matrix"], d,
                                MATRIX_SCALE)
        layer = accel_layers(sims["GraphDynS"], sims["Graphicionado"])
        runs = val["runs"]
        stepped = sum(v["stepped_cycles"] for v in runs)
        skipped = sum(v["skipped_cycles"] for v in runs)
        layer.update({
            "harness.cell_load_s": sum(r["wallLoadSeconds"]
                                       for r in records),
            "harness.critical_cell_s": max(walls),
            "harness.pool_efficiency": sum(walls) / (run["jobs"] *
                                                     run["wall_s"]),
            "harness.cache_store_s": benchlib.median(micro["store_s"]),
            "harness.cache_lookup_s": benchlib.median(micro["lookup_s"]),
            "harness.warm_matrix_s": warm["wall_s"],
            "baseline.gunrock.sim_s": sum(r["wallSimSeconds"]
                                          for r in sims["Gunrock"]),
            "energy.account_s": sum(r["wallValidateSeconds"]
                                    for r in records),
            "sim.skipped_ratio": skipped / (stepped + skipped),
            "sim.skip_windows": sum(v["skip_windows"] for v in runs),
            "algo.validate_s": benchlib.layer_self_seconds(
                self.spans.items, {"algo.validate"}, mark),
        })
        out["layer"] = layer
        return out

    def simd_pass(self, traced):
        d = self.fresh_dir("simd-traced" if traced else "simd")
        self.link_datasets(os.path.join(self.run_dir, "setup"), d)
        if not hasattr(self, "sources"):
            src, _, _ = self.tool(["sources"] + list(benchlib.MIX_DATASETS),
                                  d, MATRIX_SCALE)
            self.sources = src["sources"]
        rounds = max(1, round(self.args.seconds / SIMD_ROUND_SECONDS))
        plan = benchlib.MixPlan(self.args.seed, self.sources, NPROC, rounds)
        daemon = Daemon(self, d, traced)
        daemon.start()
        span = self.spans.begin("pass.simd-mix", "bench")
        try:
            jobs, wall = run_clients(self, daemon, plan, span)
            stats = daemon.request({"op": "statsz"})
        finally:
            self.spans.end(span)
            rss = daemon.shutdown()

        # Correctness, outside the timed region: every record equals a
        # direct harness run of the same spec; a re-submit equals the
        # record of its first run.
        self.attempted += len(jobs)
        first = {}
        for j in jobs:
            if j["error"]:
                self.fail("job %s: %s" % (j["spec"], j["error"]))
            elif not j["resubmit"]:
                first[json.dumps(j["spec"], sort_keys=True)] = j
        misses = list(first.values())
        path = os.path.join(d, "jobs.jsonl")
        with open(path, "w") as f:
            for j in misses:
                f.write(json.dumps(j["spec"]) + "\n")
        direct, _, _ = self.tool(["direct-runs", path], d, MATRIX_SCALE)
        for j, rec in zip(misses, direct["records"]):
            if j["record"] != rec:
                self.fail("job %s differs from its direct run" % j["spec"])
        for j in jobs:
            if j["resubmit"] and not j["error"]:
                orig = first.get(json.dumps(j["spec"], sort_keys=True))
                if orig is None or orig["record"] != j["record"]:
                    self.fail("re-submit %s differs" % j["spec"])

        lat = [j["latency"] if not j["error"] else math.inf for j in jobs]
        done = sum(1 for j in jobs if not j["error"])
        out = {"wall_s": wall, "pass_wall_s": wall,
               "jobs_per_s": done / wall,
               "job_p50_s": benchlib.median(lat),
               "job_tail": benchlib.tail(lat), "peak_rss_mb": rss,
               "hit_share": sum(j["resubmit"] for j in jobs) / len(jobs)}
        if not traced:
            return out
        micro, _, _ = self.tool(["cache-micro", path], d, MATRIX_SCALE)
        spans = daemon.job_spans()
        by_id = {j["id"]: j for j in misses}
        runs = {k: v for k, v in spans.items() if k in by_id}
        # The daemon's sim span is the harness's own wallSimSeconds.
        recs = {k: dict(by_id[k]["record"], wallSimSeconds=s.get("sim", 0.0))
                for k, s in runs.items()}
        gds = [recs[k] for k in runs if by_id[k]["spec"]["system"] == "gds"]
        gi = [recs[k] for k in runs
              if by_id[k]["spec"]["system"] == "graphicionado"]
        run_s = [sum(s.get(p, 0.0) for p in
                     ("load", "sim", "validate", "store"))
                 for s in runs.values()]
        layer = accel_layers(gds, gi)
        layer.update({
            "sim_cycles_per_s": sum(cycles(r) for r in gds + gi) /
            sum(r["wallSimSeconds"] for r in gds + gi),
            "harness.cache_store_s": benchlib.median(micro["store_s"]),
            "harness.cache_lookup_s": benchlib.median(micro["lookup_s"]),
            "energy.account_s": sum(s.get("validate", 0.0)
                                    for s in runs.values()),
            "svc.submit_rtt_s": benchlib.median([j["submit_rtt"]
                                                 for j in jobs]),
            "svc.run_p50_s": benchlib.median(run_s),
            "svc.queue_wait_p50_s": benchlib.median(
                [s.get("queue", 0.0) for s in runs.values()]),
            "svc.load_p50_s": benchlib.median(
                [s.get("load", 0.0) for s in runs.values()]),
            "svc.cache_hit_ratio": stats["cache_hits"] /
            stats["cache_lookups"],
            "svc.worker_busy_ratio": sum(run_s) / (daemon.workers * wall),
            "svc.rejected_ratio": stats["rejected"] / stats["submitted"],
            "svc.protocol_overhead_s": benchlib.median(
                [j["latency"] - j["daemon_latency"] for j in misses]),
        })
        out["layer"] = layer
        return out

    def prepare_pass(self, traced):
        d = self.fresh_dir("prepare-traced" if traced else "prepare")
        span = self.spans.begin("pass.prepare", "bench")
        deadline = time.monotonic() + self.args.seconds
        gen, gen_wall, _ = self.tool(["prepare-gen", PREPARE_DATASET], d, 1,
                                     span)
        self.attempted += 1
        if gen["edges"] != RM22_EDGES or gen["vertices"] != RM22_VERTICES:
            self.fail("prepare-gen built %d vertices / %d edges" % (
                gen["vertices"], gen["edges"]))
        loads = []
        load_start = time.monotonic()
        while len(loads) < PREPARE_MIN_LOADS or time.monotonic() < deadline:
            res, wall, rss = self.tool(["prepare-load", PREPARE_DATASET], d,
                                       1, span)
            loads.append(dict(res, wall=wall, rss=rss))
        load_wall = time.monotonic() - load_start
        self.spans.end(span)
        self.attempted += len(loads)
        for res in loads:
            if res["checksum"] != RM22_CHECKSUM or \
                    res["edges"] != RM22_EDGES:
                self.fail("prepare-load checksum %s" % res["checksum"])
        walls = [res["wall"] for res in loads]
        out = {"wall_s": gen_wall + walls[0],
               "pass_wall_s": gen_wall + walls[0],
               "jobs_per_s": len(loads) / load_wall,
               "job_p50_s": benchlib.median(walls),
               "job_tail": benchlib.tail(walls),
               "peak_rss_mb": benchlib.median([r["rss"] for r in loads])}
        if traced:
            out["layer"] = {
                "graph.generate_s": gen["generate_s"],
                "graph.generate_edges_per_s": gen["edges"] /
                gen["generate_s"],
                "graph.save_s": gen["save_s"],
                "graph.load_s": benchlib.median([r["load_s"]
                                                 for r in loads]),
                "graph.scan_s": benchlib.median([r["scan_s"]
                                                 for r in loads]),
                "graph.mapped_mb": loads[0]["mapped_mb"],
                "graph.heap_mb": loads[0]["heap_mb"],
            }
        return out

    # ---------------------------------------------------------------
    # Top level
    # ---------------------------------------------------------------

    def run(self):
        self.build()
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        # The untraced pass, and with --trace 0 the whole run, records no
        # span, so obs.trace_overhead compares tracing with none.
        self.spans.recording = bool(self.args.trace)
        prov = self.provenance(self.run_dir)
        setup_times, graph = self.setup()
        measure = {"matrix": self.matrix_pass, "simd-mix": self.simd_pass,
                   "prepare": self.prepare_pass}[self.args.workload]
        self.spans.recording = False
        plain = measure(False)
        self.spans.recording = True
        traced = measure(True) if self.args.trace else None
        return prov, setup_times, graph, plain, traced


class Daemon:
    """A real gds_simd daemon in the pass directory."""

    def __init__(self, bench, cwd, traced):
        self.bench = bench
        self.cwd = cwd
        self.sock = os.path.join(cwd, "gds_simd.sock")
        self.trace = os.path.join(cwd, "daemon_trace.json") if traced else ""
        # Fewer workers than clients, so the admission queue holds work;
        # an admission bound above the client count rejects nothing.
        self.workers = max(1, NPROC - 1)
        self.proc = None

    def start(self):
        argv = [self.bench.simd_bin, "--socket", self.sock, "--workers",
                str(self.workers), "--max-queue", str(2 * NPROC)]
        if self.trace:
            argv += ["--trace", self.trace]
        self.proc = self.bench.spawn(argv, self.cwd, MATRIX_SCALE)
        deadline = time.monotonic() + 60
        while True:
            try:
                self.request({"op": "statsz"})
                return
            except OSError:
                if self.proc.poll() is not None or \
                        time.monotonic() > deadline:
                    raise BenchError("gds_simd did not come up")
                time.sleep(0.002)

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(120)
        s.connect(self.sock)
        return s, s.makefile("rb")

    def request(self, req):
        s, f = self.connect()
        try:
            s.sendall((json.dumps(req) + "\n").encode())
            return json.loads(f.readline())
        finally:
            f.close()
            s.close()

    def shutdown(self):
        """Drain and stop the daemon; returns its peak RSS in MiB."""
        try:
            self.request({"op": "shutdown"})
        except OSError:
            self.proc.terminate()
        code, rss = self.bench.reap(self.proc)
        if code != 0:
            raise BenchError("gds_simd exited %d" % code)
        return rss

    def job_spans(self):
        """Per job id, the seconds of each daemon span (queue, load, ...)."""
        with open(self.trace) as f:
            events = json.load(f)["traceEvents"]
        names = {e["tid"]: e["args"]["name"] for e in events
                 if e.get("ph") == "M" and e.get("name") == "thread_name"}
        out, stacks = {}, {}
        for e in events:
            if e.get("ph") == "B":
                stacks.setdefault(e["tid"], []).append(e)
            elif e.get("ph") == "E":
                b = stacks[e["tid"]].pop()
                job = out.setdefault(names[e["tid"]], {})
                job[b["name"]] = job.get(b["name"], 0.0) + \
                    (e["ts"] - b["ts"]) * 1e-6
        return out


def run_clients(bench, daemon, plan, parent):
    """Closed loop: one connection per client, each taking the plan's
    next entry only after its previous job finished, until the plan is
    done."""
    start = time.monotonic()
    jobs, lock, errors = [], threading.Lock(), []
    entries = iter(plan.entries)

    def next_job(finished):
        """The next (spec, is_resubmit) for a client, or None at the end.
        A re-submit drawn before the client saw a job finish is skipped."""
        with lock:
            for kind, value in entries:
                if kind == "miss":
                    return value, False
                if finished:
                    return plan.resubmit(value, finished), True
        return None

    def client(c):
        track = "client/%d" % c
        s, f = daemon.connect()
        finished = []
        try:
            while True:
                got = next_job(finished)
                if got is None:
                    break
                spec, resubmit = got
                job = {"spec": spec, "resubmit": resubmit, "error": None,
                       "record": None, "id": None}
                t0 = time.monotonic()
                s.sendall((json.dumps(spec) + "\n").encode())
                reply = json.loads(f.readline())
                t1 = time.monotonic()
                job["submit_rtt"] = t1 - t0
                if not reply.get("ok"):
                    job["error"] = reply.get("error", "rejected")
                else:
                    job["id"] = reply["job"]
                    if reply["state"] not in ("done", "failed"):
                        s.sendall((json.dumps({"op": "subscribe",
                                               "job": reply["job"]})
                                   + "\n").encode())
                        while reply.get("event") != "done":
                            reply = json.loads(f.readline())
                    if reply["state"] != "done":
                        job["error"] = reply["record"]["status"]
                    job["record"] = reply["record"]
                    job["daemon_latency"] = reply["latency_seconds"]
                t2 = time.monotonic()
                job["latency"] = t2 - t0
                job["end"] = t2
                if not resubmit and not job["error"]:
                    finished.append(spec)
                with lock:
                    jobs.append(job)
                    span = bench.spans.record("svc.job", track, t0 * 1e6,
                                              t2 * 1e6, parent)
                    bench.spans.record("svc.submit", track, t0 * 1e6,
                                       t1 * 1e6, span)
        except Exception as e:  # surfaced below; never hang the run
            errors.append(e)
        finally:
            f.close()
            s.close()

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(NPROC)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise BenchError("client failed: %r" % errors[0])
    return jobs, max(j["end"] for j in jobs) - start


def cycles(record):
    return round(record["seconds"] * 1e9)


def cell_wall(record):
    return (record["wallLoadSeconds"] + record["wallSimSeconds"] +
            record["wallValidateSeconds"])


def speedup_error(sims, other, paper):
    """|GM of other/GraphDynS simulated time - paper| / paper, in %."""
    gds = {(r["algorithm"], r["dataset"]): r["seconds"]
           for r in sims["GraphDynS"]}
    ratios = [r["seconds"] / gds[(r["algorithm"], r["dataset"])]
              for r in sims[other]]
    return abs(benchlib.geomean(ratios) - paper) / paper * 100.0


def accel_layers(gds, gi):
    """core / baseline.graphicionado / mem / energy figures of runs."""
    out = {}
    for prefix, recs in (("core", gds), ("baseline.graphicionado", gi)):
        sim = sum(r["wallSimSeconds"] for r in recs)
        cyc = sum(cycles(r) for r in recs)
        out[prefix + ".sim_s"] = sim
        out[prefix + ".sim_cycles"] = cyc
        out[prefix + ".cycles_per_s"] = cyc / sim if sim else 0.0
    out["mem.bytes"] = sum(r["memoryBytes"] for r in gds + gi)
    out["mem.bw_util_mean"] = (sum(r["bandwidthUtilization"]
                                   for r in gds + gi) / len(gds + gi))
    out["energy.gds_joules_gm"] = benchlib.geomean(
        [r["energyJoules"] for r in gds])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("matrix", "simd-mix", "prepare"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = Bench(args)
    try:
        prov, setup_times, graph, plain, traced = bench.run()
    except BenchError as e:
        log("error: %s" % e)
        return 2
    finally:
        bench.stop_all()

    # Every workload measures at least TAIL_BEYOND + 1 jobs.
    tail = plain["job_tail"]
    e2e = {"setup_s": benchlib.median(setup_times),
           "wall_s": plain["wall_s"], "jobs_per_s": plain["jobs_per_s"],
           "job_p50_s": plain["job_p50_s"], "job_tail_s": tail[0],
           "peak_rss_mb": plain["peak_rss_mb"]}
    failed_ratio = bench.failed / max(bench.attempted, 1)

    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("workload %s, seed %d, nproc %d" % (args.workload, args.seed,
                                              NPROC))
    for name, unit in E2E:
        print("  %-20s %14.6g %s" % (name, e2e[name], unit))
    print("  job_tail_s is p%.1f of %d samples (%d beyond)" % (
        tail[1], tail[2], benchlib.TAIL_BEYOND))
    for name in ("sim_cycles_per_s", "err_speedup_gi",
                 "err_speedup_gunrock"):
        if name in plain:
            unit = dict(LAYER)[name]
            print("  %-20s %14.6g %s%s" % (
                name, plain[name], unit,
                " (not held out: the Gunrock model was calibrated to 4.4x)"
                if name == "err_speedup_gunrock" else ""))
    print("  %-20s %14.6g ratio (%d of %d)" % (
        "failed_ratio", failed_ratio, bench.failed, bench.attempted))
    if "hit_share" in plain:
        print("  re-submits (cache hits) are %.1f%% of %d jobs" % (
            100.0 * plain["hit_share"], bench.attempted))
    for p in bench.problems[:20]:
        print("  problem: " + p)

    if args.trace:
        metrics = layer_metrics(bench, args, plain, traced, graph,
                                failed_ratio)
        units = dict(LAYER)
    else:
        metrics = e2e
        units = dict(E2E)
    correct = bench.failed == 0 and bench.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    shutil.rmtree(bench.run_dir, ignore_errors=True)
    return 0 if correct else 1


def layer_metrics(bench, args, plain, traced, graph, failed_ratio):
    """Every per-layer metric; 0 where the workload does not run the
    layer (see README.md for which layers each workload exercises)."""
    m = {name: 0.0 for name, _ in LAYER}
    for name in ("sim_cycles_per_s", "err_speedup_gi",
                 "err_speedup_gunrock"):
        if name in traced:
            m[name] = traced[name]
    m["failed_ratio"] = failed_ratio
    if graph:
        gen = benchlib.median([g["generate_s"] for g in graph])
        m["graph.generate_s"] = gen
        m["graph.generate_edges_per_s"] = graph[0]["edges"] / gen
        m["graph.save_s"] = benchlib.median([g["save_s"] for g in graph])
    m.update(traced["layer"])
    m["obs.trace_overhead"] = traced["pass_wall_s"] / plain["pass_wall_s"]

    traces = os.path.join(ROOT, ".bench_run", "traces")
    os.makedirs(traces, exist_ok=True)
    stem = os.path.join(traces, "%s-seed%d" % (args.workload, args.seed))
    spans_file = stem + ".spans.json"
    with open(spans_file, "w") as f:
        json.dump({"spans": [s for s in bench.spans.items
                             if s["end_us"] is not None]}, f)
    subprocess.run([bench.tool_bin, "write-trace", spans_file,
                    stem + ".perfetto.json"], check=True)
    daemon_trace = os.path.join(bench.run_dir, "simd-traced",
                                "daemon_trace.json")
    if os.path.exists(daemon_trace):
        shutil.copy(daemon_trace, stem + ".daemon.perfetto.json")
    return m


if __name__ == "__main__":
    sys.exit(main())
