"""Benchmark-owned reference answers and the response check.

The served value of T(a,b) is the tropical provenance of a
transitive-closure fact: the least total weight of a path of at least one
edge from a to b (Dijkstra; weights are non-negative). Each answer is
checked against the tagging in force when it was served: the request's own
tags for inline evals, and for lane requests the lane's tagging at the epoch
the response names.
"""

import heapq
import json
import re

FACT = re.compile(r"^T\(([^,()]+),([^,()]+)\)$")
EDGE = re.compile(r"^E\(([^,()]+),([^,()]+)\)$")
MEMO_LIMIT = 4096  # searches kept; lane answers arrive roughly in epoch order


def parse_fact(text):
    m = FACT.match(text)
    if not m:
        raise ValueError(f"not a T fact: {text!r}")
    return m.group(1), m.group(2)


class Graph:
    def __init__(self, edges):
        self.edges = list(edges)
        self.out = {}
        for var, (a, b) in enumerate(self.edges):
            self.out.setdefault(a, []).append((b, var))

    def tropical_from(self, src, tags):
        """Least path weight from src to every node, paths of >= 1 edge."""
        dist = {}
        heap = [(int(tags[var]), dst) for dst, var in self.out.get(src, [])]
        heapq.heapify(heap)
        while heap:
            d, v = heapq.heappop(heap)
            if v in dist:
                continue
            dist[v] = d
            for w, var in self.out.get(v, []):
                if w not in dist:
                    heapq.heappush(heap, (d + int(tags[var]), w))
        return {v: str(d) for v, d in dist.items()}


class Reference:
    """Memoized reference values for one workload's graph."""

    def __init__(self, edges):
        self.graph = Graph(edges)
        self._memo = {}

    def value(self, tags, fact_text, key=None):
        """Reference value of fact_text under tags. `key` names the tagging
        (e.g. (lane, epoch)) so repeated lookups share one search."""
        a, b = parse_fact(fact_text)
        memo_key = (key if key is not None else tuple(tags), a)
        dist = self._memo.get(memo_key)
        if dist is None:
            dist = self.graph.tropical_from(a, tags)
            if key is not None:
                if len(self._memo) >= MEMO_LIMIT:
                    self._memo.clear()
                self._memo[memo_key] = dist
        return dist.get(b, "inf")


def proof_is_walk(leaves, a, b):
    """True when the leaf edges, with multiplicities, form one walk a -> b."""
    balance, adj, edges = {}, {}, 0
    for leaf in leaves:
        m = EDGE.match(leaf["fact"])
        if not m or leaf["count"] < 1:
            return False
        u, v = m.group(1), m.group(2)
        balance[u] = balance.get(u, 0) + leaf["count"]
        balance[v] = balance.get(v, 0) - leaf["count"]
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
        edges += leaf["count"]
    if edges == 0:
        return False
    want = {a: 1, b: -1} if a != b else {}
    if any(balance.get(n, 0) != want.get(n, 0) for n in set(balance) | set(want)):
        return False
    seen, stack = set(), [a]
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(adj.get(n, ()))
    return seen >= set(adj)


class LaneHistory:
    """A lane's tagging at every epoch: epoch 1 is the materialization, and
    each update sent for the lane advances one epoch in send order (one
    connection sends all of a lane's updates, and a connection's requests
    are served in order). `updates` yields the lane's update requests in
    send order; it is consumed as later epochs are asked for."""

    def __init__(self, initial_tags, updates=()):
        self.taggings = [None, list(initial_tags)]
        self.updates = iter(updates)

    def extend(self, update):
        tags = list(self.taggings[-1])
        for var, value in update["set"]:
            tags[int(var.lstrip("x"))] = value
        self.taggings.append(tags)

    def at(self, epoch):
        if not isinstance(epoch, int) or epoch < 1:
            return None
        while len(self.taggings) <= epoch:
            update = next(self.updates, None)
            if update is None:
                return None
            self.extend(update)
        return self.taggings[epoch]


def check_response(ref, request, response, lanes):
    """Returns None when `response` (a parsed response object) is a correct
    answer to `request`, else a one-line reason. `lanes` maps lane names to
    their LaneHistory."""
    if not response.get("ok"):
        return f"error response: {response.get('error')}"
    if request["op"] == "lane" or "lane" not in request:
        tags, key = request["tags"], None
        if request["op"] == "lane" and response.get("epoch") != 1:
            return f"lane materialized at epoch {response.get('epoch')}"
    else:
        epoch = response.get("epoch")
        tags = lanes[request["lane"]].at(epoch)
        if tags is None:
            return f"epoch {epoch!r} was never reached on lane {request['lane']}"
        key = (request["lane"], epoch)
    results = response.get("results", [])
    if [r.get("fact") for r in results] != request["query"]:
        return "results do not answer the queried facts"
    for r in results:
        want = ref.value(tags, r["fact"], key)
        if r.get("value") != want:
            return f"{r['fact']} = {r.get('value')}, reference {want}"
    if request["op"] == "explain":
        return check_explain(ref, request, response, tags, key)
    return None


def check_explain(ref, request, response, tags, key):
    ex = response.get("explain")
    if not isinstance(ex, dict) or ex.get("mode") != "proofs":
        return "explain response carries no proofs object"
    fact_text = request["query"][0]
    want = ref.value(tags, fact_text, key)
    if ex.get("value") != want:
        return f"explain value {ex.get('value')}, reference {want}"
    proofs = ex.get("proofs") or []
    if not proofs:
        return "explain returned no proof"
    top = proofs[0]
    if top.get("weight") != want:
        return f"top proof weight {top.get('weight')}, served value {want}"
    a, b = parse_fact(fact_text)
    if not proof_is_walk(top.get("leaves", []), a, b):
        return "top proof's leaves do not form a walk " + f"{a} -> {b}"
    total = 0
    for leaf in top["leaves"]:
        if leaf.get("tag") != tags[leaf["var"]]:
            return f"proof leaf x{leaf['var']} carries a stale tag"
        total += int(leaf["tag"]) * leaf["count"]
    if str(total) != want:
        return f"top proof's leaves weigh {total}, served value {want}"
    return None


def parse_line(line):
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None
