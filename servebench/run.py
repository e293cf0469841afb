#!/usr/bin/env python3
"""servebench: end-to-end benchmark of `dlcirc serve --listen` (README.md).

    python3 servebench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the repository's `dlcirc` and the
benchmark's own `servebench_tool` in Release under .bench_build/, generates
the workload's inputs from the seed, drives a `dlcirc serve` child over
loopback TCP, checks every answer against a reference, and prints one JSON
result object as the last line of stdout. --trace 1 reports the per-layer
metrics instead and writes a Chrome trace under .bench_build/traces/.
Exits non-zero when any answer is wrong or missing.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from server import ServeError, ServeProcess, die_with_parent  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# Start-ups timed per figure (setup_s; snapshot.restart_s): at least
# MIN_STARTUPS, then more until STARTUP_BUDGET_S is spent (a fast start is a
# noisy sample), at most MAX_STARTUPS.
MIN_STARTUPS, MAX_STARTUPS, STARTUP_BUDGET_S = 5, 21, 4.0
# Share of --seconds for the main phase; the probe phase gets the rest. Each
# workload's probe phase is the other's main traffic, and its latencies are
# end-to-end metrics too, so both phases get half.
MAIN_SHARE = 1 / 2
MAIN_WARMUP_S = 1.0
PROBE_WARMUP_S = 0.5
FRONT_WARMUP_S, FRONT_SECONDS = 0.5, 3.0  # traced runs only
# Each phase's window is cut into slices of about SLICE_S seconds (at least
# MIN_SLICES). Rates and median latencies are computed per slice and the
# median slice is reported. The shared host stalls the server for tens of
# milliseconds every few seconds; such a stall slows the slice it falls in,
# and the median ignores it as long as fewer than half the slices hold one.
SLICE_S, MIN_SLICES = 1.0, 3
OP_CLASSES = ("eval", "read", "update", "explain")


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def quantile(values, q):
    """Nearest-rank quantile (the convention of the server's histograms)."""
    if not values:
        raise ValueError("quantile of no samples")
    s = sorted(values)
    return s[min(len(s), max(1, math.ceil(q * len(s) - 1e-9))) - 1]


# ---------------------------------------------------------------- build

def build():
    for needed in ("CMakeLists.txt", "src", "tools/dlcirc_cli.cc"):
        if not (ROOT / needed).exists():
            raise SystemExit(f"servebench: {ROOT / needed} is missing; run "
                             "from a full checkout of the repository")
    cache = BUILD / "CMakeCache.txt"
    if not cache.exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    m = re.search(r"^CMAKE_BUILD_TYPE:STRING=(.*)$", cache.read_text(), re.M)
    build_type = m.group(1) if m else ""
    if build_type != "Release":
        raise SystemExit(f"servebench: refusing a {build_type or 'untyped'} "
                         f"build in {BUILD}; it must be Release")
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "dlcirc_cli",
                    "servebench_tool", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "dlcirc" / "dlcirc", BUILD / "servebench_tool", build_type


def host_info(build_type):
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unavailable"
    digest = hashlib.sha256()
    for path in sorted([ROOT / "CMakeLists.txt", *(ROOT / "src").rglob("*"),
                        *(ROOT / "tools").rglob("*")]):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": model, "git_sha": sha,
            "source_sha256": digest.hexdigest()[:16], "build_type": build_type}


# ---------------------------------------------------------------- phases

def op_class(request):
    if request["op"] == "eval":
        return "read" if "lane" in request else "eval"
    return request["op"]


def drive(tool, srv, workdir, name, phase, warmup, seconds):
    """Runs the load generator for one phase. Returns its summary and the
    path of its records file."""
    out = workdir / f"{name}.records.tsv"
    cmd = [str(tool), "drive", "--port", str(srv.port),
           "--scripts", str(workdir / name), "--conns", str(phase.conns),
           "--depth", str(phase.depth), "--warmup", str(warmup),
           "--seconds", str(seconds), "--slices",
           str(max(MIN_SLICES, round(seconds / SLICE_S))),
           "--out", str(out), "--pid", str(srv.proc.pid)]
    res = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=warmup + seconds + 60,
                         preexec_fn=die_with_parent)
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise ServeError(f"drive produced no summary: {res.stderr}")
    return json.loads(lines[-1]), out


def records(path):
    """(conn, seq, send_ns, recv_ns, response line) per response, streamed."""
    with open(path) as f:
        for row in f:
            conn, seq, send_ns, recv_ns, line = row.rstrip("\n").split("\t", 4)
            yield int(conn), int(seq), int(send_ns), int(recv_ns), line


class Tally:
    """Requests sent, answers verified, and the reasons of the first few
    failures, across every phase of a run."""

    def __init__(self):
        self.sent = 0
        self.correct = 0
        self.failures = []

    def record(self, reason):
        if reason is None:
            self.correct += 1
        elif len(self.failures) < 20:
            self.failures.append(reason)


def lane_histories(w, phase, sent):
    """Each lane's history, fed by the updates sent for it, in send order:
    the first `sent[conn]` lines of each connection's script. One connection
    sends all of a lane's updates (workloads.lanes_phase)."""
    updates = {lane: [] for lane in w.lane_tags}
    for conn, script in enumerate(phase.scripts):
        for seq in range(sent[conn]):
            request = script[seq % len(script)]
            if request["op"] == "update":
                updates[request["lane"]].append(request)
    return {lane: reference.LaneHistory(tags, updates[lane])
            for lane, tags in w.lane_tags.items()}


def check_phase(w, phase, summary, path, ref, tally):
    """Verifies every response of one phase and returns its per-slice
    figures: latency samples (ms) per op type of the requests sent in the
    slice, correct responses per second and all responses received in it."""
    lanes = lane_histories(w, phase, summary["sent"])
    bounds = summary["boundaries_ns"]
    slices = [{"latency": {}, "good": 0, "received": 0} for _ in bounds[1:]]

    def slice_of(ns):
        k = bisect.bisect_right(bounds, ns) - 1
        return slices[k] if 0 <= k < len(slices) else None

    tally.sent += sum(summary["sent"])
    if summary["error"]:
        tally.failures.append(f"load generator: {summary['error']}")
    # Inline evals are stateless, so a script line's answer never changes:
    # once a response body is verified for a line, byte-equal bodies of
    # later responses to that line are correct too.
    verified = {}
    for conn, seq, send_ns, recv_ns, line in records(path):
        index = seq % len(phase.scripts[conn])
        request = phase.scripts[conn][index]
        prefix = f'{{"id": {seq}, '
        body = line[len(prefix):] if line.startswith(prefix) else None
        if body is not None and verified.get((conn, index)) == body:
            reason = None
        else:
            response = reference.parse_line(line)
            if response is None:
                reason = f"unparseable response {line[:80]!r}"
            elif body is None or response.get("id") != seq:
                reason = f"response id {response.get('id')} for request {seq}"
            else:
                reason = reference.check_response(ref, request, response,
                                                  lanes)
            if reason is None and "lane" not in request:
                verified[conn, index] = body
        tally.record(reason)
        sent_in = slice_of(send_ns)
        if sent_in is not None:
            sent_in["latency"].setdefault(op_class(request), []).append(
                (recv_ns - send_ns) / 1e6)
        received_in = slice_of(recv_ns)
        if received_in is not None:
            received_in["received"] += 1
            received_in["good"] += reason is None
    for k, sl in enumerate(slices):
        sl["qps"] = sl["good"] / ((bounds[k + 1] - bounds[k]) / 1e9)
    return slices


def cpu_ms_per_op(summary, slices):
    """Median over slices of the server's CPU time in the slice divided by
    the responses received in it."""
    ticks = summary["server_cpu_ticks"]
    return statistics.median(
        (ticks[k + 1] - ticks[k]) * 1000.0 / summary["clk_tck"] /
        max(sl["received"], 1) for k, sl in enumerate(slices))


def make_lanes(srv, w, ref, tally):
    """Sends the lane materializations and checks their answers."""
    lanes = {lane: reference.LaneHistory(tags)
             for lane, tags in w.lane_tags.items()}
    setup_lines = [workloads.dumps(r) for r in w.setup]
    for request, response in zip(w.setup, srv.request(setup_lines)):
        tally.sent += 1
        tally.record(reference.check_response(ref, request, response, lanes))


def run_window(tool, w, srv, workdir, seconds, ref, tally, control=None):
    """Lane set-up, then the main and probe phases on one server. Returns
    the end-to-end figures; `control` collects stats/metrics snapshots."""
    make_lanes(srv, w, ref, tally)
    if control is not None:
        control["before"] = srv.request(['{"op":"stats"}', '{"op":"metrics"}'])
    main_s = seconds * MAIN_SHARE
    summary, path = drive(tool, srv, workdir, "main", w.main,
                          MAIN_WARMUP_S, main_s)
    if control is not None:
        control["after_main"] = srv.request(['{"op":"stats"}',
                                             '{"op":"metrics"}'])
    slices = check_phase(w, w.main, summary, path, ref, tally)
    cpu = cpu_ms_per_op(summary, slices)
    steal = [summary["steal_frac"]]
    p_summary, p_path = drive(tool, srv, workdir, "probe", w.probe,
                              PROBE_WARMUP_S, seconds - main_s)
    if control is not None:
        control["after_probe"] = srv.request(['{"op":"stats"}',
                                              '{"op":"metrics"}'])
    p_slices = check_phase(w, w.probe, p_summary, p_path, ref, tally)
    steal.append(p_summary["steal_frac"])
    return {"slices": {"main": slices, "probe": p_slices},
            "qps": statistics.median(sl["qps"] for sl in slices),
            "cpu_ms_per_op": cpu, "rss_mb": srv.vm_hwm_mb(),
            "steal_frac": max(steal)}


def p50_ms(slices, op):
    """Median over slices of the slice's median latency of `op`; None when
    no slice sent `op`."""
    per_slice = [sl["latency"][op] for sl in slices if sl["latency"].get(op)]
    if not per_slice:
        return None
    return statistics.median(quantile(v, 0.5) for v in per_slice)


def window_p50_ms(fig, op):
    """p50_ms over the phase of the window that sends `op`."""
    for phase in ("main", "probe"):
        value = p50_ms(fig["slices"][phase], op)
        if value is not None:
            return value
    raise ServeError(f"no {op} latency samples in the window")


def front_door(tool, dlcirc, w, workdir, program, graph, ref, tally):
    """The front phase, on a cold-started server of its own so that its
    cumulative request histogram holds little else. Returns the client's
    p50 latency and the server's request p50 (submit to response), in us."""
    srv, _ = start(dlcirc, workdir, w, program, graph)
    make_lanes(srv, w, ref, tally)
    summary, path = drive(tool, srv, workdir, "front", w.front,
                          FRONT_WARMUP_S, FRONT_SECONDS)
    metrics = srv.request(['{"op":"metrics"}'])[0]
    srv.stop()
    slices = check_phase(w, w.front, summary, path, ref, tally)
    front = {"client_p50_us": p50_ms(slices, "read") * 1e3,
             "request_p50_us": prom_quantile(
                 metrics, "dlcirc_serve_request_ns") / 1e3}
    log("front door: client p50 {client_p50_us:.1f} us, server request "
        "p50 {request_p50_us:.1f} us".format(**front))
    return front


def first_request(w):
    """Unit-tagged eval of one derivable fact: the start-up probe."""
    a, b = w.derivable()[0]
    return workloads.dumps({"op": "eval", "query": [workloads.fact(a, b)]})


def start(dlcirc, workdir, w, program, graph, snapshot_dir=None):
    srv = ServeProcess(dlcirc, workdir, program, graph, snapshot_dir)
    return srv, srv.start(first_request(w))


def enough(times):
    return len(times) >= MAX_STARTUPS or (len(times) >= MIN_STARTUPS and
                                          sum(times) >= STARTUP_BUDGET_S)


def startups(dlcirc, workdir, w, program, graph, snapshot_dir=None):
    """Times start-ups until enough() are done: cold compiles without a
    snapshot directory, snapshot warm starts with one. All but the last
    server are stopped. Returns (the last server, seconds of each)."""
    expected = "cold compile" if snapshot_dir is None else "snapshot warm start"
    times = []
    while True:
        srv, t = start(dlcirc, workdir, w, program, graph, snapshot_dir)
        times.append(t)
        if expected not in srv.banner_text():
            raise ServeError(f"expected a {expected}: " + srv.banner_text())
        if enough(times):
            log(f"{expected} start-ups (s): "
                + " ".join(f"{t:.4f}" for t in times))
            return srv, times
        srv.stop()


def restart_s(dlcirc, workdir, w, program, graph):
    """Median seconds of warm start-ups, which load the plan with LoadPlan
    from a snapshot directory that an untimed start filled."""
    snaps = workdir / "snapshots"
    snaps.mkdir()
    srv, _ = start(dlcirc, workdir, w, program, graph, snaps)
    srv.stop()
    srv, times = startups(dlcirc, workdir, w, program, graph, snaps)
    srv.stop()
    return statistics.median(times)


# ---------------------------------------------------------------- metrics

def prom_quantile(metrics_response, name, q="0.5"):
    """The unlabeled series' quantile from a `metrics` op response."""
    want = f'{name}{{quantile="{q}"}} '
    for line in metrics_response["metrics"].splitlines():
        if line.startswith(want):
            return float(line[len(want):])
    return 0.0


def end_to_end(fig, setup_times, tally):
    m = {"setup_s": (statistics.median(setup_times), "s"),
         "qps": (fig["qps"], "1/s")}
    for op in OP_CLASSES:
        m[f"{op}_p50_ms"] = (window_p50_ms(fig, op), "ms")
    m["cpu_ms_per_op"] = (fig["cpu_ms_per_op"], "ms")
    m["rss_mb"] = (fig["rss_mb"], "MB")
    m["ok_frac"] = (tally.correct / max(tally.sent, 1), "frac")
    return m


def per_layer(control, front, restart, replay, units):
    stats0 = control["before"][0]["stats"]
    stats2 = control["after_probe"][0]["stats"]
    after_main = control["after_main"][1]
    after_probe = control["after_probe"][1]
    m = dict(replay)
    m["broker.queue_wait_p50_us"] = prom_quantile(
        after_main, "dlcirc_serve_queue_wait_ns") / 1e3
    m["broker.request_p50_us"] = prom_quantile(
        after_main, "dlcirc_serve_request_ns") / 1e3
    m["broker.lane_wait_p50_us"] = prom_quantile(
        after_probe, "dlcirc_serve_lane_wait_ns") / 1e3
    batches = stats2["batches"] - stats0["batches"]
    m["broker.batch_width_mean"] = (
        (stats2["batched_lanes"] - stats0["batched_lanes"]) / batches
        if batches else 0.0)
    m["store.compiles"] = float(stats2["plan_compiles"])
    m["snapshot.restart_s"] = restart
    m["frontend.residual_p50_us"] = (front["client_p50_us"] -
                                     front["request_p50_us"] -
                                     m["net.echo_rtt_p50_us"])
    return {name: (m[name], units[name]) for name in units}


# ---------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hook: corrupts one expected answer, so the run must fail.
    ap.add_argument("--plant-wrong-value", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an error, so the cleanup below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    dlcirc, tool, build_type = build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    w = workloads.generate(args.workload, args.seed)
    runs = BUILD / "runs"
    for stale in runs.glob("*-*-*"):  # left by a run that was killed
        if not Path(f"/proc/{stale.name.rsplit('-', 1)[1]}").exists():
            shutil.rmtree(stale, ignore_errors=True)
    workdir = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = Tally()
    ref = reference.Reference(w.edges)
    if args.plant_wrong_value:
        ref.value = lambda *a, **k: "planted"
    try:
        program, graph = workloads.write(w, workdir)
        if args.trace:
            control = {}
            restart = restart_s(dlcirc, workdir, w, program, graph)
            srv, _ = start(dlcirc, workdir, w, program, graph)
            fig = run_window(tool, w, srv, workdir, args.seconds, ref, tally,
                             control)
            srv.stop()
            front = front_door(tool, dlcirc, w, workdir, program, graph, ref,
                               tally)
            traces = BUILD / "traces"
            traces.mkdir(exist_ok=True)
            trace_path = traces / f"{args.workload}-{args.seed}.json"
            res = subprocess.run(
                [str(tool), "replay", "--program", str(program), "--graph",
                 str(graph), "--dir", str(workdir), "--conns",
                 str(workloads.CONNS), "--front-depth", str(w.front.depth),
                 "--max-batch", str(workloads.MAX_BATCH), "--trace-out",
                 str(trace_path)], capture_output=True, text=True,
                timeout=150, preexec_fn=die_with_parent)
            if res.returncode != 0:
                raise ServeError(f"replay failed: {res.stderr.strip()}")
            lines = res.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            replay = json.loads(lines[-1])
            log(f"wrote {replay['spans']} spans to {trace_path}")
            metrics = per_layer(control, front, restart, replay["metrics"],
                                units)
        else:
            srv, setup_times = startups(dlcirc, workdir, w, program, graph)
            fig = run_window(tool, w, srv, workdir, args.seconds, ref, tally)
            srv.stop()
            metrics = end_to_end(fig, setup_times, tally)
        host = host_info(build_type)
        host["steal_frac"] = fig["steal_frac"]
        print(json.dumps({"host": host}))
    except Exception as e:  # any failure still ends in a result line
        tally.failures.append(f"{type(e).__name__}: {e}")
        metrics = {}
    finally:
        ServeProcess.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in tally.failures:
        log(f"FAILED: {reason}")
    failed = tally.sent - tally.correct
    correct = not tally.failures and failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.sent, 1),
        "failed": max(failed, 0 if correct else 1),
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
