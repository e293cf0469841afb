"""Seeded input generation for the servebench workloads.

Every input the server sees comes from here: the Datalog program, the graph
CSV and the NDJSON request lines. The same (workload, seed) always yields
byte-identical files.

A workload has two phases, both driven closed-loop over the same
connections:

* ``main``: the traffic the workload exists for; ``qps`` and
  ``cpu_ms_per_op`` come from this phase only.
* ``probe``: a shorter phase that sends the op types the main phase does not,
  so every workload reports a latency for every op type (see README.md).

A third phase, ``front``, runs only in traced runs, on a server of its own:
cheap lane reads that put the time in the front door rather than in
evaluation (see README.md).
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

TC_PROGRAM = """% Transitive closure (paper Example 2.1).
@target T.
T(X,Y) :- E(X,Y).
T(X,Y) :- T(X,Z), E(Z,Y).
"""

SEMIRING = "tropical"
SWEEP_NODES = 40
SWEEP_OFFSETS = (1, 7, 16)
MAX_BATCH = 16            # --max-batch: the pinned burst width
LANE_SCRIPT_LEN = 8192    # per connection; updates never wrap in a run
SWEEP_SCRIPT_LEN = 256
FRONT_SCRIPT_LEN = 1024
CONNS = 4
LANES = ("c0", "c1")

# Requests outstanding per connection, per traffic shape.
# 4 x 16 outstanding >= 2 x --max-batch, so every burst is full width and a
# request waits about four bursts: a stall of the host stretches one burst
# of the four, not the whole wait.
SWEEP_DEPTH = LANES_DEPTH = MAX_BATCH
FRONT_DEPTH = 8

WORKLOADS = ("sweep", "lanes")


@dataclass
class Phase:
    depth: int
    scripts: list  # per connection: list of request objects (dicts)

    @property
    def conns(self):
        return len(self.scripts)


@dataclass
class Workload:
    name: str
    seed: int
    edges: list            # [(src, dst)], index = provenance variable
    setup: list = field(default_factory=list)  # lane materializations
    main: Phase = None
    probe: Phase = None
    front: Phase = None
    lane_tags: dict = field(default_factory=dict)  # lane -> initial tags

    @property
    def graph_csv(self):
        return "".join(f"{a},{b}\n" for a, b in self.edges)

    def derivable(self):
        """All facts T(a,b) with a path of at least one edge from a to b."""
        adj = {}
        for a, b in self.edges:
            adj.setdefault(a, []).append(b)
        facts = []
        for src in sorted(adj):
            seen, stack = set(), list(adj[src])
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(adj.get(v, []))
            facts.extend((src, dst) for dst in sorted(seen))
        return facts


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def fact(a, b):
    return f"T({a},{b})"


def sweep_graph():
    """The circulant digraph v_i -> v_{i+k mod n} for k in SWEEP_OFFSETS.

    Every vertex and every edge of one offset look alike, so the cost of an
    update, a read or an explain does not depend on which edges and facts a
    seed picks, and every seed compiles the same plan. A seeded random graph
    made the lane ops' cost move by a fifth from seed to seed. Offset 1 is a
    Hamiltonian cycle, so every pair is derivable; with 7 and 16 the
    diameter is 6 hops, about that of a random digraph of out-degree 3.
    """
    n = SWEEP_NODES
    return [(f"v{i}", f"v{(i + k) % n}") for k in SWEEP_OFFSETS
            for i in range(n)]


def weight(rng):
    return str(rng.randint(1, 99))


def sweep_phase(rng, w, facts):
    """Inline evals, each with a full random tag vector and 3 facts."""
    return Phase(SWEEP_DEPTH, [
        [{"op": "eval", "tags": [weight(rng) for _ in w.edges],
          "query": [fact(*rng.choice(facts)) for _ in range(3)]}
         for _ in range(SWEEP_SCRIPT_LEN)]
        for _ in range(CONNS)])


def lanes_phase(rng, w, facts):
    """Two lanes, materialized by setup lines. Connection 0 sends every
    update, alternating between the lanes, so each lane's updates are
    served, and advance its epoch, in send order. Connections 1 and 3 read
    and connection 2 explains, alternating between the lanes: each op type
    has connections of its own, so no response waits behind another op
    type's in a connection's response order."""
    for lane in LANES:
        tags = [weight(rng) for _ in w.edges]
        w.lane_tags[lane] = tags
        w.setup.append({"op": "lane", "lane": lane, "tags": tags,
                        "query": [fact(*rng.choice(facts))]})
    edges = range(len(w.edges))

    def update(lane):
        return {"op": "update", "lane": lane,
                "set": [[f"x{v}", weight(rng)]
                        for v in rng.sample(edges, rng.randint(1, 2))],
                "query": [fact(*rng.choice(facts))]}

    def read(lane):
        return {"op": "eval", "lane": lane,
                "query": [fact(*rng.choice(facts)) for _ in range(3)]}

    def explain(lane):
        return {"op": "explain", "lane": lane,
                "query": [fact(*rng.choice(facts))], "mode": "proofs", "k": 2}

    return Phase(LANES_DEPTH, [
        [make(LANES[i % len(LANES)]) for i in range(LANE_SCRIPT_LEN)]
        for make in (update, read, explain, read)])


def front_phase(rng, facts):
    """Lane reads of one fact: microseconds of evaluation each, so the time
    goes to the net, the front end and the broker. Sent to a server that has
    made the lanes and applied no update, so every answer is at epoch 1."""
    return Phase(FRONT_DEPTH, [
        [{"op": "eval", "lane": LANES[(c + i) % len(LANES)],
          "query": [fact(*rng.choice(facts))]}
         for i in range(FRONT_SCRIPT_LEN)]
        for c in range(CONNS)])


def generate(name, seed):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"servebench:{name}:{seed}")
    w = Workload(name, seed, sweep_graph())
    facts = w.derivable()
    if name == "sweep":
        w.main = sweep_phase(rng, w, facts)
        w.probe = lanes_phase(rng, w, facts)
    else:
        w.probe = sweep_phase(rng, w, facts)
        w.main = lanes_phase(rng, w, facts)
    w.front = front_phase(rng, facts)
    return w


PHASES = ("main", "probe", "front")


def write(w, directory):
    """Writes the program, graph and request scripts the server and the
    replay read. Returns the paths of the program and graph files."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    (d / "program.dl").write_text(TC_PROGRAM)
    (d / "graph.csv").write_text(w.graph_csv)
    for phase_name in PHASES:
        phase = getattr(w, phase_name)
        for c, script in enumerate(phase.scripts):
            (d / f"{phase_name}.{c}.ndjson").write_text(
                "".join(dumps(r) + "\n" for r in script))
    (d / "setup.ndjson").write_text("".join(dumps(r) + "\n" for r in w.setup))
    return d / "program.dl", d / "graph.csv"
