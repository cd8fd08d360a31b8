#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tabby engine (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload ysoserial --seed 1 --seconds 20 --trace 0

It builds the program from source into .bench_build/, generates the
workload's archives, starts a `tabby serve` daemon, times one-shot
`tabby find` scans and closed-loop daemon requests, checks every output
against perfbench/oracle.json, and prints one JSON result as the last line
of standard output. With --trace 1 it also runs the traced layer program and
reports the per-layer metrics instead of the end-to-end ones. Full results
(seed, sample counts, quartiles, the probe series) go to .bench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import socket
import statistics
from statistics import median
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
WORK = ".bench_work"
OUT = ".bench_out"
TABBY = os.path.join(BUILD, "src", "cli", "tabby")
LAYERS = os.path.join(BUILD, "perfbench_layers")

# Phase sizes at NOMINAL_SECONDS (rounds of the single-client phase, cold/warm
# scan pairs, rounds per client in the throughput phase); --seconds scales
# them linearly. Counts are fixed, not time-boxed, so the tail percentile
# depends only on --seconds.
NOMINAL_SECONDS = 20
WORKLOADS = {
    "ysoserial": {"depth": 12, "rounds": 100, "scan_pairs": 5, "tp_rounds": 60},
    "fanout-stress": {"depth": 60, "rounds": 24, "scan_pairs": 4, "tp_rounds": 6},
}
SETUPS = 3          # set-ups per run; setup_s is their median
TRACE_REPS = 3      # repetitions of the traced layer program
TP_CLIENTS = 2      # connections in the throughput phase
REQUEST_TIMEOUT_S = 60

QUERIES = {
    "q_sinks": "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME, m.SIGNATURE",
    "q_callers": "MATCH (m:Method)-[:CALL]->(s:Method {IS_SINK: true}) RETURN m.SIGNATURE, s.NAME",
    "q_paths": "MATCH (m:Method {IS_SOURCE: true})-[:CALL*1..6]->(s:Method {IS_SINK: true}) "
               "RETURN m.SIGNATURE LIMIT 50",
}
# A session's ops. The verify-find comes first: it is the one op that opens
# a classpath with its linked program, so a residency miss lands on it.
# The crash-isolated find comes last:
# it forks the daemon, and the copy-on-write faults that follow slow the
# next request, so that request is always the next session's verify-find.
# The seed shuffles the ops in between.
OPS = ["verify", "find", "q_sinks", "q_callers", "q_paths", "stats", "find_isolated"]

HEADER = re.compile(r"^(\d+) gadget chain\(s\), [0-9.]+ s search$", re.M)


class BenchError(Exception):
    """A failure that ends the run without a result (build, daemon start)."""


class Tracer:
    """Client-side spans of a --trace 1 run: every scan, daemon request and
    phase, with its parent and request id. Kept in memory, written once."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, start_us, end_us, parent, request, tid]
        self.lock = threading.Lock()
        self.last_request = 0

    def begin(self, name, parent=-1, tid=0, request=0):
        if not self.enabled:
            return -1
        with self.lock:
            self.spans.append([name, time.monotonic_ns() // 1000, 0, parent, request, tid])
            return len(self.spans) - 1

    def end(self, index):
        if index >= 0:
            self.spans[index][2] = time.monotonic_ns() // 1000

    def request_id(self):
        with self.lock:
            self.last_request += 1
            return self.last_request


TRACER = Tracer()


# --- Small helpers ----------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(values):
    """The highest whole percentile with at least ten samples beyond it.

    Nearest-rank: percentile P of n sorted samples is the value at rank
    ceil(P * n / 100), so P <= 100 * (n - 10) / n leaves >= 10 samples above.
    """
    n = len(values)
    percentile = math.floor(100 * (n - 10) / n) if n > 10 else 0
    rank = max(1, math.ceil(percentile * n / 100))
    return sorted(values)[rank - 1], percentile


def probe_ms():
    """A fixed single-thread loop: flags slow machine phases (env.probe_ms)."""
    start = time.perf_counter()
    x = 0
    for i in range(40000):
        x += i * i % 7
    return (time.perf_counter() - start) * 1e3


def chain_keys(text):
    """Chain keys (signature sequences) from a `find` rendering."""
    keys = []
    for block in text.split("\n\n"):
        if block.startswith("(source)"):
            lines = [line for line in block.split("\n") if line and not line.startswith("  auto-verify:")]
            keys.append("".join(line[8:] + "\n" for line in lines))
    return keys


def digest(keys):
    return hashlib.sha256("".join(sorted(keys)).encode()).hexdigest()[:16]


def normalize_find(text):
    """A `find` rendering without its wall-clock header or cache line."""
    lines = [line for line in text.split("\n") if not line.startswith("cache: ")]
    return HEADER.sub(r"\1 gadget chain(s)", "\n".join(lines))


# --- Build and inputs ---------------------------------------------------------

def build():
    log_path = os.path.join(OUT, "build.log")
    with open(log_path, "w") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", ".", "-B", BUILD, *generator, "-DCMAKE_BUILD_TYPE=Release",
                         "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "perfbench.cmake")]
            if subprocess.run(configure, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("cmake configure failed; see " + log_path)
        jobs = str(os.cpu_count() or 2)
        command = ["cmake", "--build", BUILD, "--target", "tabby", "perfbench_layers", "-j", jobs]
        if subprocess.run(command, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            raise BenchError("build failed; see " + log_path)


def generate(workload, directory):
    """Writes the workload's archives; returns [(name, [jar, ...]), ...]."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    subprocess.run([LAYERS, "gen", workload, directory], check=True)
    with open(os.path.join(directory, "manifest.tsv")) as manifest:
        rows = [line.rstrip("\n").split("\t") for line in manifest if line.strip()]
    return [(row[0], row[1:]) for row in rows]


# --- The daemon and its clients -------------------------------------------------

class Conn:
    """One persistent client connection speaking the NDJSON protocol."""

    def __init__(self, path, tid=0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(REQUEST_TIMEOUT_S)
        self.sock.connect(path)
        self.file = self.sock.makefile("rwb")
        self.tid = tid
        self.parent = -1  # the phase span requests are recorded under

    def request(self, body, name=None):
        span = -1
        if TRACER.enabled:
            body = dict(body, id=TRACER.request_id())
            span = TRACER.begin(name or body["op"], self.parent, self.tid, body["id"])
        line = (json.dumps(body) + "\n").encode()
        start = time.perf_counter()
        self.file.write(line)
        self.file.flush()
        reply = self.file.readline()
        elapsed_ms = (time.perf_counter() - start) * 1e3
        TRACER.end(span)
        if not reply:
            raise BenchError("daemon closed the connection")
        return elapsed_ms, json.loads(reply)

    def close(self):
        self.file.close()
        self.sock.close()


class Daemon:
    def __init__(self, index, work):
        self.socket = os.path.join(work, "d%d.sock" % index)
        command = [TABBY, "serve", self.socket]
        self.err = open(os.path.join(work, "daemon-%d.err" % index), "wb")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=self.err)
        if not self.proc.stdout.readline().startswith(b"serving on"):
            self.kill()
            raise BenchError("tabby serve did not start")

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        """Asks the daemon to exit. Every client must be closed first:
        shutdown waits for open connections to end."""
        try:
            conn = Conn(self.socket)
            conn.request({"op": "shutdown"})
            conn.close()
            self.proc.wait(timeout=30)
        except (OSError, BenchError, subprocess.TimeoutExpired):
            self.kill()
        self.proc.stdout.close()
        self.err.close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Checker:
    """The output oracle: counts every operation and every wrong answer."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.attempted = 0
        self.failures = []
        self.texts = {}  # (classpath, kind) -> first normalized rendering seen
        self.lock = threading.Lock()

    def record(self, ok, what):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failures.append(what)
        return ok

    def stable(self, key, text):
        with self.lock:
            return self.texts.setdefault(key, text) == text

    def response(self, cp, op, reply):
        """Checks one daemon reply for classpath `cp` against the oracle."""
        if not reply.get("ok"):
            return self.record(False, "%s %s: %s" % (cp, op, reply.get("error")))
        if op == "stats":
            return self.record(True, "")
        want = self.oracle["classpaths"][cp]
        if op in QUERIES:
            ok = reply["rows"] == want["rows"][op] and self.stable((cp, op), reply["text"])
            return self.record(ok, "%s %s: %s rows" % (cp, op, reply["rows"]))
        text = normalize_find(reply["text"])
        ok = reply["chains"] == want["chains"] and digest(chain_keys(text)) == want["digest"]
        if op == "verify":
            verdicts = [reply.get(k) for k in ("effective", "refuted", "unconfirmed")]
            ok = ok and verdicts == want["verdicts"] and self.stable((cp, "verify"), text)
        else:  # in-process and crash-isolated finds print the same bytes
            ok = ok and self.stable((cp, "find"), text)
        return self.record(ok, "%s %s: %s chains" % (cp, op, reply.get("chains")))


def request_body(op, classpath, depth):
    if op == "stats":
        return {"op": "stats"}
    body = {"op": "query" if op in QUERIES else "find", "classpath": classpath, "depth": depth}
    if op in QUERIES:
        body["text"] = QUERIES[op]
    elif op == "verify":
        body["verify"] = True
    elif op == "find_isolated":
        body["workers"] = 2
    return body


class Sequence:
    """The seeded request sequence. A round is one session per classpath,
    each running OPS with the middle ops in a seeded order."""

    def __init__(self, seed_text, classpaths):
        self.rng = random.Random(seed_text)
        self.names = [name for name, _ in classpaths]

    def round(self):
        requests = []
        for name in self.names:
            ops = OPS[1:-1]
            self.rng.shuffle(ops)
            requests += [(op, name) for op in OPS[:1] + ops + OPS[-1:]]
        return requests


# --- Phases -------------------------------------------------------------------

def setup_once(index, workload, cfg, checker, final):
    """Everything before the first timed operation. Returns (seconds, state)."""
    start = time.perf_counter()
    span = TRACER.begin("setup %d" % index)
    inputs = os.path.join(WORK, "inputs-%d" % index)
    classpaths = generate(workload, inputs)
    daemon = Daemon(index, WORK)
    conn = None
    try:
        conn = Conn(daemon.socket)
        conn.parent = span
        depth = cfg["depth"]
        jars = dict(classpaths)
        # The first request per classpath is a verify-find: it opens with the
        # linked program, so later finds, verifies and queries are all hits.
        for name, classpath in classpaths:
            _, reply = conn.request(request_body("verify", classpath, depth), "verify")
            checker.response(name, "verify", reply)
        for name, classpath in classpaths:
            _, reply = conn.request({"op": "open", "classpath": classpath})
            want = checker.oracle["classpaths"][name]["cpg"]
            got = {k: reply.get(k) for k in want}
            checker.record(reply.get("ok") and got == want, "%s open: %s" % (name, got))
        for name, _ in classpaths:  # warm-up: one session each
            for op in OPS:
                _, reply = conn.request(request_body(op, jars[name], depth), op)
                checker.response(name, op, reply)
    except BaseException:
        if conn:
            conn.close()
        daemon.kill()
        raise
    seconds = time.perf_counter() - start
    TRACER.end(span)
    if not final:
        conn.close()
        daemon.stop()
        return seconds, None
    return seconds, (classpaths, daemon, conn)


def scan(classpaths, cache_dir, depth, checker, cold):
    """One scan: `tabby find` per classpath, back to back. Returns
    (seconds, max RSS in MB)."""
    total = 0.0
    rss = 0.0
    for name, jars in classpaths:
        out_path = os.path.join(WORK, "scan.out")
        with open(out_path, "wb") as out, open(os.path.join(WORK, "scan.err"), "wb") as err:
            command = [TABBY, "find", *jars, "--cache", cache_dir, "--depth", str(depth)]
            span = TRACER.begin("%s scan %s" % ("cold" if cold else "warm", name))
            start = time.perf_counter()
            proc = subprocess.Popen(command, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            total += time.perf_counter() - start
            TRACER.end(span)
            proc.returncode = os.waitstatus_to_exitcode(status)
        rss = max(rss, usage.ru_maxrss / 1024)
        with open(out_path) as f:
            text = normalize_find(f.read())
        ok = proc.returncode == 0 and checker.stable((name, "find"), text)
        checker.record(ok, "%s %s scan: exit %d" % (name, "cold" if cold else "warm", proc.returncode))
    return total, rss


def single_client(state, cfg, seq, checker, rounds, scan_pairs):
    """Closed loop, one connection: `rounds` rounds of every op, each round
    followed by the probe, with cold/warm scan pairs spread evenly between."""
    classpaths, daemon, conn = state
    jars = dict(classpaths)
    lat = {op: [] for op in OPS}
    probes = []
    verify = {"hits": 0, "chains": 0}
    conn.parent = TRACER.begin("single-client phase")
    scans = {"cold": [], "warm": [], "rss": []}
    scan_at = {round(i * rounds / scan_pairs) for i in range(scan_pairs)}
    for r in range(rounds):
        if r in scan_at:
            cache_dir = os.path.join(WORK, "scan-cache")
            shutil.rmtree(cache_dir, ignore_errors=True)
            cold, rss = scan(classpaths, cache_dir, cfg["depth"], checker, cold=True)
            warm, _ = scan(classpaths, cache_dir, cfg["depth"], checker, cold=False)
            scans["cold"].append(cold)
            scans["warm"].append(warm)
            scans["rss"].append(rss)
        for op, name in seq.round():
            elapsed, reply = conn.request(request_body(op, jars[name], cfg["depth"]), op)
            if checker.response(name, op, reply):
                lat[op].append(elapsed)
            if op == "verify":
                verify["hits"] += reply.get("verify_cache_hits", 0)
                verify["chains"] += reply.get("chains", 0)
        probes.append(probe_ms())
    TRACER.end(conn.parent)
    return lat, probes, scans, verify


def throughput(state, cfg, seed_text, checker, rounds):
    """Closed loop, TP_CLIENTS connections, `rounds` rounds each, each client
    with its own seeded sequence. Each client's rate is its requests over its
    own elapsed time."""
    classpaths, daemon, _ = state
    jars = dict(classpaths)
    results = [None] * TP_CLIENTS
    barrier = threading.Barrier(TP_CLIENTS)
    phase = TRACER.begin("throughput phase")

    def client(i):
        seq = Sequence("%s/tp%d" % (seed_text, i), classpaths)
        samples = []
        conn = None
        try:
            conn = Conn(daemon.socket, tid=i + 1)
            conn.parent = phase
            barrier.wait()
            start = time.perf_counter()
            for _ in range(rounds):
                for op, name in seq.round():
                    elapsed, reply = conn.request(request_body(op, jars[name], cfg["depth"]), op)
                    if checker.response(name, op, reply):
                        samples.append((op, elapsed))
            results[i] = (samples, time.perf_counter() - start)
        except Exception as e:  # a failed operation; the other clients stop too
            barrier.abort()
            checker.record(False, "throughput client %d: %r" % (i, e))
        finally:
            if conn:
                conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(TP_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    TRACER.end(phase)
    return [r for r in results if r is not None]


def trace_layers(cfg):
    """The traced layer program (perfbench_layers trace)."""
    manifest = os.path.join(WORK, "inputs-%d" % (SETUPS - 1), "manifest.tsv")
    out = subprocess.run([LAYERS, "trace", manifest, WORK, str(cfg["depth"]), str(TRACE_REPS)],
                         stdout=subprocess.PIPE, check=True)
    return json.loads(out.stdout)


# --- Metrics ------------------------------------------------------------------

def summarize(values):
    q1, q3 = quartiles(values)
    return {"n": len(values), "q1": q1, "median": median(values), "q3": q3}


def end_to_end(setups, lat, scans, hwm, tp):
    metrics, evidence = {}, {}

    def put(name, value, samples=None):
        metrics[name] = value
        if samples is not None:
            evidence[name] = summarize(samples)

    queries = lat["q_sinks"] + lat["q_callers"] + lat["q_paths"]
    put("setup_s", median(setups), setups)
    put("scan_cold_s", median(scans["cold"]), scans["cold"])
    put("scan_warm_s", median(scans["warm"]), scans["warm"])
    put("scan_peak_rss_mb", max(scans["rss"]), scans["rss"])
    for name, samples in (("find", lat["find"]), ("query", queries), ("verify", lat["verify"])):
        put(name + "_p50_ms", median(samples), samples)
        # The tails are evidence, not metrics: they follow the machine's
        # millisecond stalls and would not hold steady between runs.
        value, percentile = tail(samples)
        evidence[name + "_p50_ms"].update(tail_ms=value, tail_percentile=percentile)
    put("find_isolated_p50_ms", median(lat["find_isolated"]), lat["find_isolated"])
    rates = [len(samples) / elapsed for samples, elapsed in tp]
    put("req_per_s", sum(rates), rates)
    put("peak_rss_mb", hwm)
    return metrics, evidence


def per_layer(layers, lat, probes, tp, residency, verify, scan_cold):
    m = {name: median(values) for name, values in layers["metrics"].items()}
    c = layers["counts"]
    metrics = dict(m)
    metrics.update({
        "jar.archives": c["jar.archives"], "jar.classes": c["jar.classes"],
        "analysis.methods": c["analysis.methods"], "analysis.waves": c["analysis.waves"],
        "cpg.call_edges": c["cpg.call_edges"], "cpg.alias_edges": c["cpg.alias_edges"],
        "cpg.pruned_ratio": c["cpg.pruned_call_sites"] / (c["cpg.call_edges"] + c["cpg.pruned_call_sites"]),
        "graph.frame_bytes": c["graph.frame_bytes"], "graph.store_bytes": c["graph.store_bytes"],
        "cache.verdict_hit_ratio": verify["hits"] / max(1, verify["chains"]),
        "pipeline.resident_hit_ratio": residency["resident_hits"] / residency["opens"],
        "pipeline.evictions": residency["evictions"],
        "finder.expansions": c["finder.expansions"],
        "finder.peak_frontier_mb": c["finder.peak_frontier_bytes"] / 2**20,
        "finder.chains_per_kexp": c["finder.chains"] / (c["finder.expansions"] / 1000),
        "runtime.steps": c["runtime.steps"],
        "runtime.effective_ratio": c["runtime.effective"] / max(1, c["finder.chains"]),
        "cypher.rows": sum(c["cypher.rows." + q] for q in QUERIES),
        "dist.overhead_ms": m["dist.find_ms"] - m["finder.find_ms"],
        "dist.workers_spawned": c["dist.workers_spawned"],
        "serve.stats_rtt_ms": median(lat["stats"]),
        "serve.audits": residency["audits"],
        "env.probe_ms": median(probes),
    })
    # Mean extra latency per request under TP_CLIENTS connections, against
    # the same op's single-client median.
    single = {op: median(samples) for op, samples in lat.items()}
    queued = [elapsed - single[op] for samples, _ in tp for op, elapsed in samples]
    metrics["serve.queue_ms"] = statistics.fmean(queued)
    # How much of the untraced one-shot cold scan the composed layers explain.
    cold_layers = ["jar.decode_ms", "jar.link_ms", "cpg.build_ms", "graph.freeze_ms",
                   "graph.serialize_ms", "cache.publish_ms", "finder.find_ms"]
    metrics["trace.scan_coverage"] = sum(m[k] for k in cold_layers) / 1e3 / scan_cold
    rep_ms = median(layers["rep_ms"])
    metrics["trace.overhead_pct"] = 100 * layers["span_cost_us"] * layers["spans_per_rep"] / 1e3 / rep_ms
    return metrics


def check_layer_counts(layers, oracle, checker):
    checker.record(layers["counts_stable"], "traced counts differ between repetitions")
    counts = layers["counts"]
    for name, want in oracle["layers"].items():
        checker.record(counts.get(name) == want, "traced %s: %s != %s" % (name, counts.get(name), want))
    by_cp = {}
    for key in layers["chain_keys"]:
        name, chain = key.split("\n", 1)
        by_cp.setdefault(name, []).append(chain)
    for name, want in oracle["classpaths"].items():
        got = digest(by_cp.get(name, []))
        checker.record(got == want["digest"], "traced %s chain digest %s" % (name, got))


def chrome_trace(layers, spans, path):
    """Writes the run's spans as Chrome trace JSON (opens in Perfetto)."""
    events = []
    for name, start, end, parent, request in layers["spans"]:
        events.append({"name": name, "ph": "X", "ts": start, "dur": end - start, "pid": 1, "tid": 1,
                       "args": {"request": request, "parent": parent}})
    for name, start, end, parent, request, tid in spans:
        events.append({"name": name, "ph": "X", "ts": start, "dur": end - start, "pid": 2, "tid": tid,
                       "args": {"request": request, "parent": parent}})
    events.append({"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "perfbench_layers"}})
    events.append({"name": "process_name", "ph": "M", "pid": 2, "args": {"name": "run.py clients"}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# --- Main -----------------------------------------------------------------------

def run(args):
    cfg = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "oracle.json")) as f:
        oracle = json.load(f)[args.workload]
    scale = args.seconds / NOMINAL_SECONDS
    rounds = max(2, round(cfg["rounds"] * scale))
    scan_pairs = max(2, round(cfg["scan_pairs"] * scale))
    tp_rounds = max(2, round(cfg["tp_rounds"] * scale))
    seed_text = "%s/%d" % (args.workload, args.seed)

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("run from the root of a tabby checkout (no CMakeLists.txt or src/ here)")
    os.makedirs(OUT, exist_ok=True)
    build()
    TRACER.enabled = bool(args.trace)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    checker = Checker(oracle)
    state = None
    try:
        setups = []
        for i in range(SETUPS):
            seconds, state = setup_once(i, args.workload, cfg, checker, final=i == SETUPS - 1)
            setups.append(seconds)
        classpaths, daemon, conn = state
        seq = Sequence(seed_text, classpaths)
        lat, probes, scans, verify = single_client(state, cfg, seq, checker, rounds, scan_pairs)
        hwm = daemon.vm_hwm_mb()
        _, stats = conn.request({"op": "stats"})
        residency = {k: stats[k] for k in ("opens", "resident_hits", "evictions", "audits")}
        tp = throughput(state, cfg, seed_text, checker, tp_rounds)
    finally:
        if state:
            state[2].close()
            state[1].stop()

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "scan_pairs": scan_pairs, "tp_rounds": tp_rounds,
              "residency": residency, "probe_ms": probes, "samples_ms": lat}
    if args.trace:
        layers = trace_layers(cfg)
        check_layer_counts(layers, oracle, checker)
        values = per_layer(layers, lat, probes, tp, residency, verify, median(scans["cold"]))
        result["counts"] = layers["counts"]
        result["trace_file"] = os.path.join(OUT, "trace-%s-%d.json" % (args.workload, args.seed))
        chrome_trace(layers, TRACER.spans, result["trace_file"])
    else:
        values, result["evidence"] = end_to_end(setups, lat, scans, hwm, tp)
    # Names and units come from BENCHMARK.json, the benchmark's contract.
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result["attempted"] = checker.attempted
    result["failed"] = len(checker.failures)
    result["failures"] = checker.failures[:20]
    result["correct"] = not checker.failures
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    path = os.path.join(OUT, "result-%s-s%d-t%d-%d.json" % (args.workload, args.seed, args.trace, time.time_ns()))
    with open(path, "w") as f:
        json.dump(result, f)
    print(json.dumps({k: v for k, v in result.items() if k != "samples_ms"}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
