#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload sessions|sensors|cluster \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds the CLI and the load
generator (perfbench/load.ml) with dune, generates every statement from
the seed, starts the workload's servers as separate processes of the
repository's own CLI, drives them from one load process with two client
connections, checks every answer against the reference evaluator, stops
every process it started and prints one JSON object as its last line.

--trace 0 sets the servers up three times, measures an untraced window
on the last deployment (sessions: on each of the three) and reports the
end-to-end metrics.
--trace 1 sets them up once, runs an untraced and a traced window back
to back, diffs the servers' METRICS/STATS across the traced window,
replays the statements in process, and reports the per-layer metrics.

Workload definitions (sizes, mixes, why) live in WORKLOADS below; the
program under test receives only the generated statements.
"""

import argparse
import bisect
import fnmatch
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

CLI = os.path.join("_build", "default", "bin", "expirel_cli.exe")
LOAD = os.path.join("_build", "default", "perfbench", "load.exe")
SOURCES = ["dune-project", os.path.join("bin", "expirel_cli.ml"),
           os.path.join("perfbench", "load.ml")]
SCRATCH = ".perfbench"
HOST = "127.0.0.1"
DEADLINE_S = 170.0
SETUPS = 3

# The server and the load generator each run OCaml threads under one
# runtime lock, so each uses one core.  Pinning them to different cores
# of this process's set keeps the placement the same from run to run.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, LOAD_CPU = _CPUS[0], _CPUS[-1]

# ---------------------------------------------------------------- metrics

# Op classes: read = SELECT without aggregate, write = INSERT/DELETE,
# agg = GROUP BY / COUNT / APPROX / SHOW VIEW, join, advance = TICK.
CLASSES = ["read", "write", "agg", "join", "advance"]

# Metrics printed in the JSON line.  Every workload can report each of
# these with the sample counts its runs reach; the class metrics that
# only some workloads have are in the human-readable report.
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("read_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("server_peak_rss_mb", "MB"),
]

# The physical operators the three workloads' plans use.
OPERATORS = ["seq-scan", "index-scan", "project", "hash-join", "aggregate",
             "merge-diff", "sketch-count", "batch"]

PER_LAYER = [
    ("trace_overhead_pct", "%", "lower"),
    ("server.roundtrip_overhead_us", "us", "lower"),
    ("server.rwlock_wait_us_per_req", "us", "lower"),
    ("server.codec_us_per_req", "us", "lower"),
    ("server.bytes_out_per_req", "B", "lower"),
    ("server.events_per_advance", "count", "lower"),
    ("sqlx.parse_us_per_stmt", "us", "lower"),
    ("sqlx.lower_plan_us_per_query", "us", "lower"),
    ("sqlx.plan_cache_hit_ratio", "fraction", "higher"),
    ("exec.eval_us_per_query", "us", "lower"),
] + [("exec.op.%s_us_per_query" % op, "us", "lower") for op in OPERATORS] + [
    ("exec.rows_examined_per_row_returned", "ratio", "lower"),
    ("exec.at_query_us", "us", "lower"),
    ("exec.now_query_us", "us", "lower"),
    ("core.view_recompute_share", "fraction", "lower"),
    ("storage.write_us_per_stmt", "us", "lower"),
    ("storage.wal_bytes_per_user_byte", "ratio", "lower"),
    ("storage.snapshot_us_after_write", "us", "lower"),
    ("storage.advance_us_per_tick", "us", "lower"),
    ("exp_index.expired_per_tick", "count", "higher"),
    ("repl.lag_records_p99", "count", "lower"),
    ("repl.records_applied_per_s", "1/s", "higher"),
    ("cluster.fanout_per_query", "count", "lower"),
    ("cluster.pruned_share", "fraction", "higher"),
    ("cluster.bytes_per_query", "B", "lower"),
    ("cluster.shard_request_us_per_req", "us", "lower"),
    ("cluster.coordinator_self_us_per_req", "us", "lower"),
]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def percentile(values, p):
    """Nearest-rank percentile, or None unless at least ten samples lie
    beyond it (the highest percentile a sample of this size supports)."""
    n = len(values)
    if n == 0 or n * (1.0 - p) < 10.0 - 1e-9:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * n) - 1)]


# ----------------------------------------------------- METRICS exposition

SAMPLE_RE = re.compile(
    r'^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$')
LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """Prometheus text exposition -> {(name, ((label, value), ...)): float}."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            continue
        name, labels, value = m.groups()
        try:
            v = float(value)
        except ValueError:
            continue
        key = tuple(sorted(LABEL_RE.findall(labels or "")))
        out[(name, key)] = v
    return out


def diff_metrics(before, after):
    """after - before for every sample present after the window."""
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def histogram(diff, name, **labels):
    """(sum, count) of one histogram series in a diff, by exact labels."""
    key = tuple(sorted(labels.items()))
    return (diff.get((name + "_sum", key), 0.0),
            diff.get((name + "_count", key), 0.0))


def counter(diff, name, **labels):
    return diff.get((name, tuple(sorted(labels.items()))), 0.0)


# ------------------------------------------------------------ workloads

class Zipf:
    """Rank sampler with P(rank r) proportional to 1/(r+1)."""

    def __init__(self, n, s=1.0):
        acc, self.cum = 0.0, []
        for r in range(n):
            acc += 1.0 / (r + 1) ** s
            self.cum.append(acc)

    def rank(self, rng):
        return bisect.bisect_left(self.cum, rng.random() * self.cum[-1])


def blocks(rng, mix, n_blocks):
    """Op kinds in blocks of sum(mix) with exact per-block counts, each
    block shuffled: any whole number of blocks has the exact mix."""
    block = [kind for kind, count in mix for _ in range(count)]
    for _ in range(n_blocks):
        rng.shuffle(block)
        yield from block


def gen_sessions(rng):
    live, n_keys = 20000, 20000
    zipf = Zipf(n_keys)
    ttl = lambda: rng.randint(1000, 2200)  # 12.5 inserts/tick x 1600 = 20k
    # Preloaded rows are part-way through their lives, as in a steady
    # state, so rows expire from the first tick on.
    preload = ["INSERT INTO sessions VALUES (%d, %d) TTL %d"
               % (k, k % 1000, rng.randint(1, ttl())) for k in range(live)]
    mix = [("read", 70), ("insert", 25), ("delete", 3), ("tick", 2)]
    streams, gate_keys = [], []
    for c in range(2):
        recent = list(range(live))
        next_key = 1000000 * (c + 1)
        ops = []
        for kind in blocks(rng, mix, 600):
            if kind == "read":
                k = recent[-1 - zipf.rank(rng)]
                ops.append(("read", "SELECT sid, uid FROM sessions WHERE sid = %d" % k))
                if len(gate_keys) < 20 * (c + 1):
                    gate_keys.append(k)
            elif kind == "insert":
                k, next_key = next_key, next_key + 1
                recent.append(k)
                if len(recent) > 2 * n_keys:
                    del recent[:n_keys]
                ops.append(("write", "INSERT INTO sessions VALUES (%d, %d) TTL %d"
                            % (k, k % 1000, ttl())))
            elif kind == "delete":
                k = recent[-1 - zipf.rank(rng)]
                ops.append(("write", "DELETE FROM sessions WHERE sid = %d" % k))
            else:
                ops.append(("advance", "TICK 1"))
        streams.append(ops)
    watch = "SELECT sid FROM sessions WHERE uid < 10"
    gate = ["query\t" + watch] + [
        "query\tSELECT sid, uid FROM sessions WHERE sid = %d" % k for k in gate_keys]
    return {
        "deploy": "replicated",
        "schema": ["CREATE TABLE sessions (sid, uid)",
                   "CREATE INDEX ON sessions (sid)",
                   "CREATE TRIGGER expired ON sessions"],
        "preload": preload, "post": [], "ops": streams, "gate": gate,
        "subscribe": "watch\t" + watch, "tables": ["sessions"],
        "rate": 0.0, "blocks": [100, 100], "warmup": 5, "measured": 3,
    }


# The reader pauses between requests: with no pause the server's polling
# write lock never finds a gap and the paced ingest starves.  Between two
# reads the ingest must drain what arrived during a read, which takes a
# pause of about rate x read time x write round trip; and a write waits
# about (read time - pause) / 2 at the median, so the longer the pause the
# more write_p50_ms swings with the read time.  A low rate lets a short
# pause drain the backlog with room to spare on a slowed host.
SENSORS_INGEST_RPS = 100.0
SENSORS_THINK_S = 0.01


def gen_sensors(rng):
    n_sensors, per_tick, ttl = 1000, 100, 200  # 100/tick x TTL 200 = 20k
    preload = ["INSERT INTO sensors VALUES (%d, %d) EXPIRES NEVER" % (s, s % 20)
               for s in range(n_sensors)]
    reading = lambda: "INSERT INTO readings VALUES (%d, %d) TTL %d" % (
        rng.randrange(n_sensors), rng.randrange(1000), ttl)
    for _ in range(ttl):
        preload += [reading() for _ in range(per_tick)] + ["TICK 1"]
    ingest = []
    for _ in range(300):
        ingest += [("write", reading()) for _ in range(per_tick)]
        ingest.append(("advance", "TICK 1"))
    # A view over readings JOIN sensors would materialise through the
    # naive evaluator's nested loop (20k x 1k rows, about 50 s) and time
    # out on every recompute, so the non-monotonic view groups readings
    # alone and the per-site join runs as a planned query.
    per_sensor = "SELECT sensor, COUNT(*) FROM readings GROUP BY sensor"
    per_site = ("SELECT site, COUNT(*) FROM readings JOIN sensors "
                "ON readings.sensor = sensors.sensor GROUP BY site")
    hot = "SELECT sensor, val FROM readings WHERE val >= 990"
    keys = rng.sample(range(n_sensors), 16)
    ranges = [rng.randrange(0, 990) for _ in range(2)]
    fixed = [
        ("agg", "SHOW VIEW per_sensor"),
        ("agg", "SHOW VIEW hot"),
        ("agg", per_site),
        ("agg", "SELECT sensor, MAX(val) FROM readings GROUP BY sensor"),
        ("read", "SELECT sensor FROM sensors EXCEPT SELECT sensor FROM readings"),
        ("agg", "SELECT APPROX_COUNT(0.01) FROM readings"),
    ] + [("read", "SELECT sensor, val FROM readings WHERE val >= %d AND val < %d "
                  "AT @NOW+50" % (lo, lo + 10)) for lo in ranges]
    count = "SELECT COUNT(*) FROM readings WHERE sensor = %d"
    reader = []
    for b in range(400):
        block = fixed + [("agg", count % keys[b % len(keys)])]
        rng.shuffle(block)
        reader += block
    reads = fixed + [("agg", count % k) for k in keys]
    gate = (["view\tper_sensor\t" + per_sensor, "view\thot\t" + hot]
            + ["query\t" + sql for cls, sql in reads if not sql.startswith("SHOW")])
    return {
        "deploy": "single",
        "schema": ["CREATE TABLE sensors (sensor, site)",
                   "CREATE TABLE readings (sensor, val)"],
        "preload": preload,
        "post": ["CREATE VIEW per_sensor AS " + per_sensor, "CREATE VIEW hot AS " + hot],
        "ops": [ingest, reader], "gate": gate, "subscribe": None,
        "tables": ["sensors", "readings"],
        "rate": SENSORS_INGEST_RPS, "think": SENSORS_THINK_S, "blocks": [per_tick + 1, len(fixed) + 1],
        "warmup": 3, "measured": 1,
    }


def gen_cluster(rng):
    n_users, n_sessions, n_tokens = 200, 6000, 3000
    ttl = lambda: rng.randint(120, 240)  # 33 session inserts/tick x 180 = 6k
    preload = ["INSERT INTO users VALUES (%d, %d) EXPIRES NEVER" % (u, u % 10)
               for u in range(n_users)]
    preload += ["INSERT INTO sessions VALUES (%d, %d) TTL %d"
                % (k, rng.randrange(n_users), rng.randint(1, ttl()))
                for k in range(n_sessions)]
    preload += ["INSERT INTO tokens VALUES (%d, %d) TTL %d"
                % (k, rng.randrange(10), rng.randint(1, ttl()))
                for k in rng.sample(range(n_sessions), n_tokens)]
    co_join = ("SELECT sessions.sid, sessions.uid, tokens.scope FROM sessions "
               "JOIN tokens ON sessions.sid = tokens.sid")
    bc_join = ("SELECT sessions.sid, users.org FROM sessions "
               "JOIN users ON sessions.uid = users.uid")
    group = "SELECT uid, COUNT(*) FROM sessions GROUP BY uid"
    mix = [("session", 33), ("token", 16), ("scatter", 24), ("group", 15),
           ("point", 5), ("co_join", 5), ("bc_join", 1), ("tick", 1)]
    streams, gate = [], ["query\t" + group, "query\t" + co_join, "query\t" + bc_join]
    for c in range(2):
        recent = list(range(n_sessions))
        next_key = 100000 * (c + 1)
        ops = []
        for kind in blocks(rng, mix, 40):
            if kind == "session":
                k, next_key = next_key, next_key + 1
                recent.append(k)
                ops.append(("write", "INSERT INTO sessions VALUES (%d, %d) TTL %d"
                            % (k, rng.randrange(n_users), ttl())))
            elif kind == "token":
                ops.append(("write", "INSERT INTO tokens VALUES (%d, %d) TTL %d"
                            % (rng.choice(recent[-n_sessions:]), rng.randrange(10), ttl())))
            elif kind == "scatter":
                ops.append(("read", "SELECT sid, uid FROM sessions WHERE uid = %d"
                            % rng.randrange(n_users)))
            elif kind == "group":
                ops.append(("agg", group))
            elif kind == "point":
                ops.append(("read", "SELECT sid, uid FROM sessions WHERE sid = %d"
                            % rng.choice(recent[-n_sessions:])))
            elif kind == "co_join":
                ops.append(("join", co_join))
            elif kind == "bc_join":
                ops.append(("join", bc_join))
            else:
                ops.append(("advance", "TICK 1"))
        streams.append(ops)
        gate += ["query\t" + sql for cls, sql in ops[:60] if cls == "read"][:5]
    return {
        "deploy": "cluster",
        "schema": ["CREATE TABLE sessions (sid, uid)",
                   "CREATE TABLE tokens (sid, scope)",
                   "CREATE TABLE users (uid, org)"],
        "preload": preload, "post": [], "ops": streams, "gate": gate,
        "subscribe": None, "tables": ["sessions", "tokens", "users"],
        "rate": 0.0, "blocks": [100, 100], "warmup": 1, "measured": 1,
    }


WORKLOADS = {"sessions": gen_sessions, "sensors": gen_sensors,
             "cluster": gen_cluster}


def generate(workload, seed):
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))


def write_inputs(spec, run_dir):
    def lines(name, items):
        with open(os.path.join(run_dir, name), "w") as f:
            f.write("".join(item + "\n" for item in items))
    lines("schema.sql", spec["schema"])
    lines("preload.sql", spec["preload"])
    lines("post.sql", spec["post"])
    for i, ops in enumerate(spec["ops"]):
        lines("ops%d.txt" % i, ["%s\t%s" % op for op in ops])
    lines("gate.txt", spec["gate"])
    if spec["subscribe"]:
        lines("subscribe.txt", [spec["subscribe"]])


# ------------------------------------------------------------- processes

class Processes:
    """Every process a run starts, stopped and waited for on exit, and
    the run's scratch directory, removed on exit — also on failure."""

    def __init__(self, scratch):
        self.scratch = scratch
        self.procs = []

    def __enter__(self):
        os.makedirs(self.scratch, exist_ok=True)
        return self

    def spawn(self, argv, log, cpu=None):
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        out = open(log, "w")
        try:
            p = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                 stdin=subprocess.DEVNULL, preexec_fn=pin)
        finally:
            out.close()
        self.procs.append(p)
        return p

    def stop(self, procs=None):
        procs = list(self.procs if procs is None else procs)
        for p in procs:
            if p.poll() is None:
                p.terminate()
        for p in procs:
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            if p in self.procs:
                self.procs.remove(p)

    def __exit__(self, *exc):
        self.stop()
        shutil.rmtree(self.scratch, ignore_errors=True)
        return False


def wait_for(log, pattern, proc, count=1, limit=30.0):
    deadline = time.monotonic() + limit
    while True:
        with open(log) as f:
            found = re.findall(pattern, f.read())
        if len(found) >= count:
            return found
        if proc.poll() is not None:
            raise RuntimeError("server exited early: " + open(log).read())
        if time.monotonic() > deadline:
            raise RuntimeError("server did not start: " + log)
        time.sleep(0.005)


def peak_rss_mb(proc):
    with open("/proc/%d/status" % proc.pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % proc.pid)


def deploy(kind, procs, where):
    """Starts the workload's servers; returns (load.exe arguments, server
    processes)."""
    os.makedirs(where)
    log = lambda name: os.path.join(where, name + ".log")
    if kind == "cluster":
        p = procs.spawn([CLI, "cluster", "serve", "--shards", "3",
                         "--base-port", "0"], log("cluster"), SERVER_CPU)
        found = wait_for(log("cluster"), r"shard \d+ listening on [\d.]+:(\d+)", p, 3)
        return ["--shards", ",".join(found)], [p]
    args, servers = [], []
    data = None
    argv = [CLI, "serve", "--port", "0", "--node-name", "primary"]
    if kind == "replicated":
        data = os.path.join(where, "primary")
        os.makedirs(data)
        argv += ["--data-dir", data]
    p = procs.spawn(argv, log("primary"), SERVER_CPU)
    port = wait_for(log("primary"), r"listening on [\d.]+:(\d+)", p)[0]
    args += ["--primary", port]
    servers.append(p)
    if kind == "replicated":
        rdata = os.path.join(where, "replica")
        os.makedirs(rdata)
        r = procs.spawn([CLI, "replicate", "--from", "%s:%s" % (HOST, port),
                         "--data-dir", rdata, "--port", "0"], log("replica"), LOAD_CPU)
        rport = wait_for(log("replica"), r"serving reads on [\d.]+:(\d+)", r)[0]
        args += ["--replica", rport, "--data-dir", data]
        servers.append(r)
    return args, servers


# ---------------------------------------------------------------- a run

def read_kv(path):
    out = {}
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                parts = line.split(None, 1)
                if len(parts) == 2:
                    out[parts[0]] = parts[1].strip()
    return out


def read_samples(path):
    """conn class outcome latency_us service_us end_us per line."""
    rows = []
    with open(path) as f:
        for line in f:
            conn, cls, result, lat, service, end = line.split()
            rows.append((int(conn), cls, result, float(lat), float(service), float(end)))
    return rows


def block_rates(samples, conn, block):
    """Completed requests per second in each whole block of one
    connection's stream, in order."""
    mine = sorted((s for s in samples if s[0] == conn), key=lambda s: s[5])
    rates, start = [], 0.0
    for b in range(0, len(mine) - block + 1, block):
        part = mine[b:b + block]
        end = part[-1][5]
        rates.append(sum(1 for s in part if s[2] == "ok") / ((end - start) / 1e6))
        start = end
    return rates


def window_metrics(dirs, label, blocks):
    """End-to-end figures of one measured window on each deployment in
    dirs, pooled: latencies over all samples, throughput over all whole
    blocks."""
    parts = [(read_samples(os.path.join(d, "samples_%s.txt" % label)),
              read_kv(os.path.join(d, "window_%s.txt" % label))) for d in dirs]
    samples = [s for part, _ in parts for s in part]
    out = {"elapsed_s": sum(float(info["elapsed_s"]) for _, info in parts),
           "attempted": len(samples),
           "failed": sum(1 for s in samples if s[2] != "ok"),
           "outcomes": {}, "classes": {}}
    for s in samples:
        out["outcomes"][s[2]] = out["outcomes"].get(s[2], 0) + 1
    # Every block carries the workload's exact mix, so each block's rate
    # measures the same thing; the median over the blocks of every
    # deployment, summed over the connections, is robust to a stall in
    # one of them.
    out["throughput_rps"] = sum(
        statistics.median([r for part, _ in parts for r in block_rates(part, c, size)]
                          or [0.0])
        for c, size in enumerate(blocks))
    out["failed_share"] = out["failed"] / max(1, out["attempted"])
    for cls in CLASSES:
        lat = [s[3] / 1000.0 for s in samples if s[1] == cls and s[2] == "ok"]
        outcomes = {}
        for s in samples:
            if s[1] == cls:
                outcomes[s[2]] = outcomes.get(s[2], 0) + 1
        if outcomes:
            out["classes"][cls] = {
                "n": len(lat), "attempted": sum(outcomes.values()), "outcomes": outcomes,
                "p50_ms": percentile(lat, 0.50), "p99_ms": percentile(lat, 0.99)}
    out["client_mean_us"] = (
        statistics.fmean(s[4] for s in samples if s[2] == "ok")
        if out["attempted"] > out["failed"] else 0.0)
    catchup = [float(info["repl_catchup_ms"]) for _, info in parts
               if "repl_catchup_ms" in info]
    if catchup:
        out["repl_catchup_ms"] = statistics.median(catchup)
    out["info"] = parts[-1][1]
    return out


def e2e_values(w, setup_s, rss):
    values = {"setup_s": setup_s, "throughput_rps": w["throughput_rps"],
              "server_peak_rss_mb": rss}
    for name, _ in END_TO_END:
        if name in values:
            continue
        cls, stat = name.split("_", 1)
        v = w["classes"].get(cls, {}).get(stat)
        if v is None:
            raise RuntimeError("%s: too few samples (%d)"
                               % (name, w["classes"].get(cls, {}).get("n", 0)))
        values[name] = v
    return values


def layer_metrics(run_dir, untraced, traced, spec):
    """Per-layer figures of the traced window and the in-process replay."""
    d = {}
    for f in os.listdir(run_dir):
        m = re.match(r"metrics_before_(\w+)\.prom$", f)
        if m:
            node = m.group(1)
            read = lambda ph: parse_prometheus(
                open(os.path.join(run_dir, "metrics_%s_%s.prom" % (ph, node))).read())
            d[node] = diff_metrics(read("before"), read("after"))
    stats = {}
    for f in os.listdir(run_dir):
        m = re.match(r"stats_before_(\w+)\.txt$", f)
        if m:
            node = m.group(1)
            b = read_kv(os.path.join(run_dir, f))
            a = read_kv(os.path.join(run_dir, "stats_after_%s.txt" % node))
            stats[node] = {k: float(a[k]) - float(b.get(k, 0)) for k in a}
    replay = {k: float(v) for k, v in read_kv(os.path.join(run_dir, "replay.txt")).items()}
    info = traced["info"]
    servers = [n for n in d if n != "coordinator" and n != "replica"]
    total = lambda f: sum(f(d[n]) for n in servers)
    hsum = lambda name, **lb: total(lambda x: histogram(x, name, **lb)[0])
    hcount = lambda name, **lb: total(lambda x: histogram(x, name, **lb)[1])
    ratio = lambda a, b: a / b if b else 0.0
    stage = "expirel_request_stage_duration_seconds"
    requests = total(lambda x: counter(x, "expirel_requests_total"))
    server_mean_us = 1e6 * ratio(hsum("expirel_request_duration_seconds"),
                                 hcount("expirel_request_duration_seconds"))
    evals = hcount(stage, stage="eval")
    advances = traced["classes"].get("advance", {}).get("n", 0)
    ops = traced["attempted"]
    m = {}
    m["trace_overhead_pct"] = 100.0 * ratio(
        untraced["throughput_rps"] - traced["throughput_rps"], untraced["throughput_rps"])
    m["server.roundtrip_overhead_us"] = traced["client_mean_us"] - server_mean_us
    m["server.rwlock_wait_us_per_req"] = 1e6 * ratio(hsum(stage, stage="rwlock_wait"), requests)
    m["server.codec_us_per_req"] = replay.get("codec_us_per_req", 0.0)
    m["server.bytes_out_per_req"] = ratio(
        total(lambda x: counter(x, "expirel_bytes_out_total")), requests)
    m["server.events_per_advance"] = ratio(
        total(lambda x: counter(x, "expirel_events_pushed_total")), advances)
    m["sqlx.parse_us_per_stmt"] = replay.get("parse_us_per_stmt", 0.0)
    m["sqlx.lower_plan_us_per_query"] = replay.get("lower_plan_us_per_query", 0.0)
    m["sqlx.plan_cache_hit_ratio"] = ratio(
        total(lambda x: counter(x, "expirel_plan_cache_hits_total")),
        total(lambda x: counter(x, "expirel_plan_cache_requests_total")))
    m["exec.eval_us_per_query"] = 1e6 * ratio(hsum(stage, stage="eval"), evals)
    for op in OPERATORS:
        m["exec.op.%s_us_per_query" % op] = 1e6 * ratio(
            hsum("expirel_eval_operator_duration_seconds", operator=op), evals)
    m["exec.rows_examined_per_row_returned"] = replay.get("rows_examined_per_row_returned", 0.0)
    m["exec.at_query_us"] = replay.get("at_query_us", 0.0)
    m["exec.now_query_us"] = replay.get("now_query_us", 0.0)
    m["core.view_recompute_share"] = ratio(
        float(info.get("view_recomputed", 0)), float(info.get("view_reads", 0)))
    m["storage.write_us_per_stmt"] = 1e6 * ratio(
        hsum(stage, stage="storage"), hcount(stage, stage="storage"))
    m["storage.wal_bytes_per_user_byte"] = ratio(
        float(info.get("wal_bytes", 0)), float(info.get("user_bytes", 0)))
    m["storage.snapshot_us_after_write"] = replay.get("snapshot_us_after_write", 0.0)
    m["storage.advance_us_per_tick"] = replay.get("advance_us_per_tick", 0.0)
    m["exp_index.expired_per_tick"] = ratio(
        sum(stats[n].get("tuples_expired", 0.0) for n in servers if n in stats),
        advances)
    lag = [int(x) for x in open(os.path.join(run_dir, "lag_samples.txt")).read().split()]
    # p99 when the samples support it, else the largest lag seen
    m["repl.lag_records_p99"] = float(
        percentile(lag, 0.99) if percentile(lag, 0.99) is not None else max(lag, default=0))
    m["repl.records_applied_per_s"] = ratio(
        stats.get("replica", {}).get("repl_position", 0.0), traced["elapsed_s"])
    co = lambda name: counter(d.get("coordinator", {}), "expirel_cluster_%s_total" % name)
    shard_mean_us = server_mean_us if spec["deploy"] == "cluster" else 0.0
    m["cluster.fanout_per_query"] = ratio(co("messages"), ops)
    m["cluster.pruned_share"] = ratio(co("pruned_shards"), 3.0 * co("fanouts"))
    m["cluster.bytes_per_query"] = ratio(
        co("bytes_sent") + co("bytes_received"), ops)
    m["cluster.shard_request_us_per_req"] = shard_mean_us
    m["cluster.coordinator_self_us_per_req"] = (
        traced["client_mean_us"] - shard_mean_us if spec["deploy"] == "cluster" else 0.0)
    return m


def root_bench_files(root):
    """Digest of every BENCH_*.json at the repository root: the recorded
    results, which a benchmark run must never write."""
    out = {}
    for name in os.listdir(root):
        if fnmatch.fnmatch(name, "BENCH_*.json"):
            with open(os.path.join(root, name), "rb") as f:
                out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def check_sources(root):
    missing = [p for p in SOURCES if not os.path.exists(os.path.join(root, p))]
    if missing:
        raise SystemExit("perfbench: not a repository checkout (missing %s)"
                         % ", ".join(missing))


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    subprocess.run(["dune", "build", "--root", ".", "./bin/expirel_cli.exe",
                    "./perfbench/load.exe"], check=True, env=env,
                   stdout=sys.stderr, stderr=sys.stderr, stdin=subprocess.DEVNULL,
                   timeout=880)


def fmt(v):
    return "-" if v is None else ("%.4f" % v)


def report(workload, seed, label, w, extra):
    print("[%s seed=%d %s] %.1f req/s over %.2f s, %d attempted, %d failed %s"
          % (workload, seed, label, w["throughput_rps"], w["elapsed_s"],
             w["attempted"], w["failed"], json.dumps(w["outcomes"], sort_keys=True)))
    for cls, c in w["classes"].items():
        print("  %-8s n=%-7d p50=%s ms  p99=%s ms  %s"
              % (cls, c["n"], fmt(c["p50_ms"]), fmt(c["p99_ms"]),
                 json.dumps(c["outcomes"], sort_keys=True)))
    for k, v in extra.items():
        print("  %s = %s" % (k, fmt(v)))


def run(args):
    started = time.monotonic()
    root = os.getcwd()
    check_sources(root)
    recorded = root_bench_files(root)
    spec = generate(args.workload, args.seed)
    scratch = os.path.join(root, SCRATCH, "run-%d" % os.getpid())
    with Processes(scratch) as procs:
        # compilers and servers keep their temporary files in the run's
        # scratch directory, inside the checkout
        os.environ["TMPDIR"] = os.path.join(scratch, "tmp")
        os.makedirs(os.environ["TMPDIR"])
        build()
        # The servers are set up SETUPS times (once for a traced run) and
        # the median set-up is reported.  The last spec["measured"]
        # deployments are measured, each for an equal share of the time,
        # and their samples pooled: where blocks are short, how fast a
        # fresh deployment runs differs from one start to the next by
        # more than its figures move within a window.
        rounds = 1 if args.trace else SETUPS
        measured = 1 if args.trace else spec["measured"]
        setups, rss, dirs = [], [], []
        for i in range(rounds):
            run_dir = os.path.join(scratch, "io%d" % i)
            os.makedirs(run_dir)
            write_inputs(spec, run_dir)
            t0 = time.monotonic()
            load_args, servers = deploy(spec["deploy"], procs,
                                        os.path.join(scratch, "deploy%d" % i))
            spawn_s = time.monotonic() - t0
            budget = DEADLINE_S - (time.monotonic() - started)
            log = os.path.join(scratch, "load%d.log" % i)
            argv = [LOAD, "--dir", run_dir, "--seconds", str(args.seconds / measured),
                    "--warmup", str(spec["warmup"]), "--rate", str(spec["rate"]),
                    "--blocks", ",".join(map(str, spec["blocks"])),
                    "--think", str(spec.get("think", 0.0)),
                    "--tables", ",".join(spec["tables"])] + load_args
            if args.trace:
                argv.append("--trace")
            if i < rounds - measured:
                argv.append("--setup-only")
            load = procs.spawn(argv, log, LOAD_CPU)
            try:
                code = load.wait(timeout=max(1.0, budget))
            except subprocess.TimeoutExpired:
                raise RuntimeError("load generator ran past the deadline")
            if code != 0:
                with open(log) as f:
                    raise RuntimeError("load generator failed:\n" + f.read()[-4000:])
            setups.append(spawn_s + float(read_kv(os.path.join(run_dir, "setup.txt"))["setup_s"]))
            if i >= rounds - measured:
                rss.append(sum(peak_rss_mb(p) for p in servers))
                dirs.append(run_dir)
            procs.stop(servers)
        gates = [read_kv(os.path.join(d, "gate_result.txt")) for d in dirs]
        checked = sum(int(g.get("checked", "0")) for g in gates)
        failed = sum(int(g.get("failed", "1")) for g in gates)
        mismatches = []
        for d in dirs:
            with open(os.path.join(d, "gate_result.txt")) as f:
                mismatches += [l.strip() for l in f if l.startswith("mismatch")]
        untraced = window_metrics(dirs, "untraced", spec["blocks"])
        setup_s = statistics.median(setups)
        rss = statistics.median(rss)
        extra = {"setup_s": setup_s, "server_peak_rss_mb": rss,
                 "failed_share": untraced["failed_share"]}
        if "repl_catchup_ms" in untraced:
            extra["repl_catchup_ms"] = untraced["repl_catchup_ms"]
        report(args.workload, args.seed, "untraced", untraced, extra)
        result_window = untraced
        if args.trace:
            traced = window_metrics(dirs, "traced", spec["blocks"])
            report(args.workload, args.seed, "traced", traced, {})
            metrics = layer_metrics(dirs[0], untraced, traced, spec)
            units = {n: u for n, u, _ in PER_LAYER}
            shutil.copy(os.path.join(dirs[0], "spans.tsv"),
                        os.path.join(root, SCRATCH, "spans-%s.tsv" % args.workload))
            result_window = traced
        else:
            metrics = e2e_values(untraced, setup_s, rss)
            units = dict(END_TO_END)
        print("  gate: %d statement(s) checked, %d mismatch(es)" % (checked, failed))
        for line in mismatches:
            print("  " + line)
    if root_bench_files(root) != recorded:
        raise RuntimeError("the run wrote a BENCH_*.json at the repository root")
    correct = failed == 0 and checked > 0 and len(gates) == measured
    return {
        "correct": correct,
        "attempted": result_window["attempted"],
        "failed": result_window["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
