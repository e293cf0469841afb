"""Self-tests of the benchmark itself (not of dlcirc).

    python3 -m unittest discover -s servebench -p 'test_*.py'

Run from the repository root. The last class runs short `lanes` benchmarks
end to end, so it builds the program on first use.
"""

import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import steadiness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
# The paper's Figure 1a graph. Row order fixes the provenance variables.
FIG1_EDGES = [("s", "u1"), ("s", "u2"), ("u1", "v1"), ("u1", "v2"),
              ("u2", "v2"), ("v1", "t"), ("v2", "t")]


def read_tree(d):
    return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())}


class GenerationTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as a, \
                    tempfile.TemporaryDirectory() as b:
                workloads.write(workloads.generate(name, 7), a)
                workloads.write(workloads.generate(name, 7), b)
                self.assertEqual(read_tree(a), read_tree(b), name)

    def test_other_seed_gives_other_requests(self):
        for name in workloads.WORKLOADS:
            one = workloads.generate(name, 1).main.scripts
            two = workloads.generate(name, 2).main.scripts
            self.assertNotEqual(one, two, name)

    def test_graph_is_the_same_circulant_for_every_seed(self):
        # The seed draws weights and requests; the graph stays fixed, so
        # one seed's work is like another's.
        edges = workloads.generate("sweep", 1).edges
        self.assertEqual(edges, workloads.generate("lanes", 2).edges)
        self.assertEqual(len(set(edges)), len(edges))
        n = workloads.SWEEP_NODES
        for a, b in edges:
            k = (int(b[1:]) - int(a[1:])) % n
            self.assertIn(k, workloads.SWEEP_OFFSETS)
        self.assertEqual(len(edges), n * len(workloads.SWEEP_OFFSETS))

    def test_queries_name_only_derivable_facts(self):
        for name in workloads.WORKLOADS:
            w = workloads.generate(name, 3)
            derivable = {workloads.fact(a, b) for a, b in w.derivable()}
            for phase in (w.main, w.probe, w.front):
                for script in phase.scripts:
                    for request in script:
                        self.assertTrue(set(request["query"]) <= derivable)

    def test_every_op_type_is_sent(self):
        for name in workloads.WORKLOADS:
            w = workloads.generate(name, 1)
            ops = {run.op_class(r) for phase in (w.main, w.probe)
                   for script in phase.scripts for r in script}
            self.assertEqual(ops, set(run.OP_CLASSES), name)

    def test_one_op_type_per_connection_and_one_updater_per_lane(self):
        # Responses come back in request order per connection, so a
        # connection that mixed op types would tie their latencies together;
        # and the epoch check needs each lane's updates in send order.
        for name in workloads.WORKLOADS:
            w = workloads.generate(name, 4)
            for phase in (w.main, w.probe, w.front):
                updater = {}
                for conn, script in enumerate(phase.scripts):
                    self.assertEqual(len({run.op_class(r) for r in script}), 1)
                    for r in script:
                        if r["op"] == "update":
                            self.assertEqual(
                                updater.setdefault(r["lane"], conn), conn)

    def test_lane_history_counts_the_updates_sent(self):
        w = workloads.generate("lanes", 2)
        sent = [5, 3, 7, 7]
        lanes = run.lane_histories(w, w.main, sent)
        for lane in workloads.LANES:
            updates = sum(r["op"] == "update" and r["lane"] == lane
                          for conn, script in enumerate(w.main.scripts)
                          for r in script[:sent[conn]])
            self.assertGreater(updates, 0)
            self.assertIsNotNone(lanes[lane].at(1 + updates))
            self.assertIsNone(lanes[lane].at(2 + updates))


class ReferenceTest(unittest.TestCase):
    def test_dijkstra_matches_floyd_warshall(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 7)
            edges = list({(f"n{rng.randrange(n)}", f"n{rng.randrange(n)}")
                          for _ in range(rng.randint(1, 12))})
            tags = [str(rng.randint(0, 9)) for _ in edges]
            nodes = sorted({v for e in edges for v in e})
            inf = float("inf")
            d = {(a, b): inf for a in nodes for b in nodes}
            for (a, b), t in zip(edges, tags):
                d[a, b] = min(d[a, b], int(t))
            for k in nodes:
                for a in nodes:
                    for b in nodes:
                        d[a, b] = min(d[a, b], d[a, k] + d[k, b])
            ref = reference.Reference(edges)
            for a in nodes:
                for b in nodes:
                    want = "inf" if d[a, b] == inf else str(d[a, b])
                    self.assertEqual(ref.value(tags, f"T({a},{b})"), want)

    def setUp(self):
        # Figure 1 with weights 1..7 in variable order.
        self.edges = list(FIG1_EDGES)
        self.ref = reference.Reference(self.edges)
        self.tags = [str(i + 1) for i in range(len(self.edges))]
        self.lanes = {"c0": reference.LaneHistory(self.tags)}
        self.lanes["c0"].extend({"set": [["x0", "50"]]})  # epoch 2

    def test_inline_eval(self):
        request = {"op": "eval", "tags": self.tags, "query": ["T(s,t)"]}
        good = {"ok": True, "results": [{"fact": "T(s,t)", "value": "10"}]}
        self.assertIsNone(reference.check_response(self.ref, request, good,
                                                   self.lanes))

    def test_rejects_planted_wrong_value(self):
        request = {"op": "eval", "tags": self.tags, "query": ["T(s,t)"]}
        bad = {"ok": True, "results": [{"fact": "T(s,t)", "value": "11"}]}
        self.assertIsNotNone(reference.check_response(self.ref, request, bad,
                                                      self.lanes))

    def test_rejects_planted_wrong_epoch(self):
        # At epoch 2, x0 = 50, so T(s,t) = min(50+3+6, 2+5+7) = 14; the
        # value 10 belongs to epoch 1.
        request = {"op": "eval", "lane": "c0", "query": ["T(s,t)"]}
        ok = {"ok": True, "epoch": 2,
              "results": [{"fact": "T(s,t)", "value": "14"}]}
        stale = {"ok": True, "epoch": 2,
                 "results": [{"fact": "T(s,t)", "value": "10"}]}
        unknown = {"ok": True, "epoch": 3,
                   "results": [{"fact": "T(s,t)", "value": "14"}]}
        self.assertIsNone(reference.check_response(self.ref, request, ok,
                                                   self.lanes))
        self.assertIsNotNone(reference.check_response(self.ref, request,
                                                      stale, self.lanes))
        self.assertIsNotNone(reference.check_response(self.ref, request,
                                                      unknown, self.lanes))

    def explain(self, leaves, weight="10"):
        return {"ok": True, "epoch": 1,
                "results": [{"fact": "T(s,t)", "value": "10"}],
                "explain": {"mode": "proofs", "value": "10", "proofs": [
                    {"weight": weight, "leaves": leaves}]}}

    def test_explain_proof_must_be_a_walk_of_the_served_weight(self):
        request = {"op": "explain", "lane": "c0", "query": ["T(s,t)"]}
        walk = [{"fact": "E(s,u1)", "var": 0, "tag": "1", "count": 1},
                {"fact": "E(u1,v1)", "var": 2, "tag": "3", "count": 1},
                {"fact": "E(v1,t)", "var": 5, "tag": "6", "count": 1}]
        self.assertIsNone(reference.check_response(
            self.ref, request, self.explain(walk), self.lanes))
        broken = [walk[0], walk[2]]
        self.assertIsNotNone(reference.check_response(
            self.ref, request, self.explain(broken), self.lanes))
        self.assertIsNotNone(reference.check_response(
            self.ref, request, self.explain(walk, weight="9"), self.lanes))

    def test_error_response_fails(self):
        request = {"op": "eval", "tags": self.tags, "query": ["T(s,t)"]}
        self.assertIsNotNone(reference.check_response(
            self.ref, request, {"ok": False, "error": "busy"}, self.lanes))


class QuantileTest(unittest.TestCase):
    def test_nearest_rank(self):
        ten = list(range(1, 11))
        self.assertEqual(run.quantile(ten, 0.5), 5)
        self.assertEqual(run.quantile(ten, 0.9), 9)
        self.assertEqual(run.quantile(list(range(100, 0, -1)), 0.9), 90)
        self.assertEqual(run.quantile([7.5], 0.9), 7.5)
        self.assertEqual(run.quantile([3, 1, 2], 0.5), 2)

    def test_spread_uses_statistics_quartiles(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3, s = steadiness.spread(values)
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))
        self.assertEqual(statistics.quantiles(values, n=4), [q1, q2, q3])
        self.assertAlmostEqual(s, 1.0)


class SpecTest(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for section in ("end_to_end", "per_layer")
                 for m in SPEC[section]]
        names += [w["name"] for w in SPEC["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(workloads.WORKLOADS))


def children_of(workdir):
    """Pids of processes whose command line names `workdir`."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        if str(workdir).encode() in cmdline:
            pids.append(pid)
    return pids


class EndToEndTest(unittest.TestCase):
    """Short lanes runs through the real program."""

    def start(self, *extra):
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", "lanes",
             "--seed", "11", "--seconds", "2", *extra],
            cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        return proc, run.BUILD / "runs" / f"lanes-11-{proc.pid}"

    def bench(self, *extra):
        proc, workdir = self.start(*extra)
        out, err = proc.communicate(timeout=600)
        self.assertFalse(workdir.exists(), "run directory survived")
        self.assertEqual(children_of(workdir), [], "a child survived")
        return proc.returncode, json.loads(out.strip().splitlines()[-1]), err

    def interrupt(self, sig):
        """Starts a run, sends `sig` once a server child is up, and returns
        the run's workdir after the run has exited."""
        proc, workdir = self.start("--trace", "0")
        deadline = time.monotonic() + 600
        while not children_of(workdir) and time.monotonic() < deadline:
            time.sleep(0.05)
        proc.send_signal(sig)
        proc.communicate(timeout=60)
        time.sleep(0.5)  # the kernel delivers parent-death signals
        self.assertEqual(children_of(workdir), [], "a child survived")
        return workdir

    def test_terminated_run_cleans_up(self):
        self.assertFalse(self.interrupt(signal.SIGTERM).exists())

    def test_killed_run_leaves_no_child(self):
        # SIGKILL runs no cleanup; the next run removes the directory.
        self.interrupt(signal.SIGKILL)

    def assert_declared(self, result, section):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = result["metrics"]
        self.assertEqual(set(printed), set(declared))
        for name, m in printed.items():
            self.assertRegex(name, NAME)
            self.assertEqual(m["unit"], declared[name])

    def test_untraced_run_prints_every_end_to_end_metric(self):
        code, result, err = self.bench("--trace", "0")
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"])
        self.assert_declared(result, "end_to_end")
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_traced_run_prints_every_per_layer_metric(self):
        code, result, err = self.bench("--trace", "1")
        self.assertEqual(code, 0, err)
        self.assert_declared(result, "per_layer")
        trace = json.loads((run.BUILD / "traces" / "lanes-11.json").read_text())
        spans = trace["traceEvents"]
        self.assertTrue(spans)
        for s in spans:
            self.assertIn("parent", s["args"])
            self.assertIn("request_id", s["args"])
        self.assertTrue(any(s["args"]["parent"] >= 0 for s in spans))
        self.assertTrue(any(s["args"]["request_id"] >= 0 for s in spans))

    def test_failed_check_fails_the_run_and_cleans_up(self):
        code, result, _ = self.bench("--trace", "0", "--plant-wrong-value")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
