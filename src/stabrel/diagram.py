"""Circuit diagrams: a small IR, a text file format, and an evaluator.

A diagram is a list of nodes (spiders, cups, caps, measurements, ...)
joined by wires, together with ordered input and output boundary slots.
`Diagram` checks the wiring once, when it is built, and indexes every
endpoint's wire.  Evaluation assigns one variable per wire coordinate
(two for a quantum wire, one for a classical wire), collects every
node's linear constraints into a single system over F_p, and eliminates
the internal variables exactly, interior columns first, leaving the
boundary's constraints, all in one `relation.conjoin`.  Feedback loops
need no special treatment -- they are just more equations.

Two layers share the format and the evaluator:

* ``layer=affine``  -- the classical fragment: every wire is classical,
  and the nodes are the plain relational generators of `relation`.
  Evaluates to an ``AffineRelation``.
* ``layer=doubled`` -- quantum wires carry a (z, x) coordinate pair,
  classical wires one coordinate; the node vocabulary adds scaling,
  discard, measurements, preparations and classical spiders.  Evaluates
  to a ``GradedRelation``.

`NODE_SPECS` lists every node kind of each layer with its arity, phase
rule, port types and builder.

File format, one statement per line, ``#`` starts a comment::

    p=3; layer=doubled
    node 0 z_spider phase=1,2 arity_in=1 arity_out=2
    node 1 measure_z
    wire in0 n0.in0
    wire n0.out0 n1.in0
    wire n0.out1 out0
    wire n1.out0 out1
    wiretype 3 classical

Endpoints are ``in<k>``/``out<k>`` (boundary slots) or ``n<id>.in<k>``/
``n<id>.out<k>`` (node ports).  ``wiretype <k> <quantum|classical>``
declares the type of the k-th ``wire`` statement on ``layer=doubled``;
a wire whose type no node port forces takes the layer's kind: classical
on ``layer=affine``, quantum on ``layer=doubled``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import accumulate, count
from typing import Dict, List, Tuple

from . import doubled as db
from . import relation as ar
from .linalg import Prime

LAYER_AFFINE = "affine"
LAYER_DOUBLED = "doubled"

QUANTUM = db.QUANTUM
CLASSICAL = db.CLASSICAL


class DiagramError(ValueError):
    """Problem with a diagram file or structure; carries a line number.

    `at` names the wire (``("wire", index)``) or node (``("node", id)``)
    that a structural check found at fault, so `parse` can add its line."""

    def __init__(self, message, line=None, at=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
        self.at = at


class Node:
    __slots__ = ("ident", "kind", "phase", "n_in", "n_out")

    def __init__(self, ident: int, kind: str, phase=(0, 0), n_in=1, n_out=1):
        self.ident = int(ident)
        self.kind = kind
        self.phase = (int(phase[0]), int(phase[1]))
        self.n_in = int(n_in)
        self.n_out = int(n_out)

    def __repr__(self):
        return "Node(%d, %r, phase=%r, %d->%d)" % (
            self.ident, self.kind, self.phase, self.n_in, self.n_out)


# endpoints: ("n", node_id, side, port) or ("b", side, slot), side in {in,out}


class Diagram:
    """Immutable diagram, checked once when built: node ids are distinct,
    each node's kind, arity and phase are allowed on its layer, every
    node port and boundary slot ends exactly one wire, each side's slots
    are 0..k-1, and a wire at a generator port has that port's type.

    A wire type given as None takes the type its first generator port
    pins, or else the layer's kind: classical on ``layer=affine``, which
    refuses a quantum wire, and quantum on ``layer=doubled``.  `ends`
    maps every endpoint to its wire; `n_in`, `n_out` and the boundary
    types are read off it.  Construct via `parse` or the combinators."""

    __slots__ = ("p", "layer", "nodes", "wires", "wire_types", "ends",
                 "n_in", "n_out")

    def __init__(self, p, layer, nodes, wires, wire_types):
        self.p = p if isinstance(p, Prime) else Prime(p)
        if layer not in (LAYER_AFFINE, LAYER_DOUBLED):
            raise DiagramError("unknown layer %r" % (layer,))
        self.layer = layer
        self.nodes = tuple(nodes)
        self.wires = tuple(wires)
        by_id: Dict[int, Node] = {}
        for nd in self.nodes:
            if nd.ident in by_id:
                raise DiagramError("duplicate node id %d" % nd.ident,
                                   at=("node", nd.ident))
            _check_node(layer, self.p, nd)
            by_id[nd.ident] = nd
        self.ends: Dict[tuple, int] = {}
        slots = {"in": 0, "out": 0}
        for w, (a, b) in enumerate(self.wires):
            if a == b:
                raise DiagramError("wire joins an endpoint to itself",
                                   at=("wire", w))
            for ep in (a, b):
                if ep in self.ends:
                    raise DiagramError("endpoint %s used twice" % _ep_str(ep),
                                       at=("wire", w))
                self.ends[ep] = w
                if ep[0] == "b":
                    slots[ep[1]] += 1
                    continue
                _, ident, side, k = ep
                nd = by_id.get(ident)
                if nd is None:
                    raise DiagramError("wire references missing node %d"
                                       % ident, at=("wire", w))
                if not 0 <= k < (nd.n_in if side == "in" else nd.n_out):
                    raise DiagramError("node %d has no port %s%d"
                                       % (ident, side, k), at=("wire", w))
        # the first unwired port of a side, found without listing them all
        for nd in self.nodes:
            for side, n in (("in", nd.n_in), ("out", nd.n_out)):
                k = next(k for k in count() if ("n", nd.ident, side, k)
                         not in self.ends)
                if k < n:
                    raise DiagramError("dangling port n%d.%s%d"
                                       % (nd.ident, side, k),
                                       at=("node", nd.ident))
        for side, used in slots.items():
            if any(("b", side, k) not in self.ends for k in range(used)):
                raise DiagramError("boundary %s-slots not contiguous from 0"
                                   % side)
        self.n_in, self.n_out = slots["in"], slots["out"]

        types = list(wire_types)
        for w, pair in enumerate(self.wires):
            if layer == LAYER_AFFINE and types[w] == QUANTUM:
                raise DiagramError("wiretype only applies to layer=doubled",
                                   at=("wire", w))
            for ep in pair:
                if ep[0] == "b":
                    continue
                spec = NODE_SPECS[layer, by_id[ep[1]].kind]
                want = spec.ports[ep[2] == "out"]
                if types[w] is None:
                    types[w] = want
                elif types[w] != want:
                    raise DiagramError("wire %d is %s but port %s needs %s"
                                       % (w, types[w], _ep_str(ep), want),
                                       at=("wire", w))
            if types[w] is None:
                types[w] = CLASSICAL if layer == LAYER_AFFINE else QUANTUM
        self.wire_types = tuple(types)

    def dom_types(self) -> Tuple[str, ...]:
        return tuple(self.wire_types[self.ends["b", "in", k]]
                     for k in range(self.n_in))

    def cod_types(self) -> Tuple[str, ...]:
        return tuple(self.wire_types[self.ends["b", "out", k]]
                     for k in range(self.n_out))

    def __repr__(self):
        return "Diagram(p=%d, %s, %d nodes, %d wires, %d->%d)" % (
            self.p, self.layer, len(self.nodes), len(self.wires),
            self.n_in, self.n_out)


def _ports(nd: Node) -> List[tuple]:
    """The endpoints of a node's ports: its inputs, then its outputs."""
    return ([("n", nd.ident, "in", k) for k in range(nd.n_in)]
            + [("n", nd.ident, "out", k) for k in range(nd.n_out)])


# ---------------------------------------------------------------------------
# node vocabulary

# One spec per (layer, kind).  `arity` is the fixed (n_in, n_out), or None
# when the file declares it.  `phase` is the rule on the node's phase pair
# (a, b): "none" (both zero), "single" (b zero), "invertible" (b zero and
# a nonzero) or "pair" (any).  `ports` is the wire type of every input and
# of every output; every affine wire is classical.  `build(p, n_in,
# n_out, a, b)` returns the node's AffineRelation; builders look their
# constructor up when called, so a patched module attribute is seen.
NodeSpec = namedtuple("NodeSpec", ["arity", "phase", "ports", "build"])

NODE_SPECS = {
    (LAYER_AFFINE, "z_spider"): NodeSpec(
        None, "none", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: ar.z_spider(p, n, m)),
    (LAYER_AFFINE, "x_spider"): NodeSpec(
        None, "single", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: ar.x_spider(p, n, m, a)),
    (LAYER_AFFINE, "scalar"): NodeSpec(
        (1, 1), "single", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: ar.scalar(p, a)),
    (LAYER_AFFINE, "co_scalar"): NodeSpec(
        (1, 1), "single", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: ar.co_scalar(p, a)),
    (LAYER_AFFINE, "affine_unit"): NodeSpec(
        (0, 1), "none", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: ar.affine_unit(p)),
    (LAYER_AFFINE, "cup_z"): NodeSpec(
        (0, 2), "none", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: ar.cup_z(p)),
    (LAYER_AFFINE, "cap_z"): NodeSpec(
        (2, 0), "none", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: ar.cap_z(p)),
    (LAYER_AFFINE, "cup_x"): NodeSpec(
        (0, 2), "none", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: ar.cup_x(p)),
    (LAYER_AFFINE, "cap_x"): NodeSpec(
        (2, 0), "none", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: ar.cap_x(p)),
    (LAYER_AFFINE, "swap"): NodeSpec(
        (2, 2), "none", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: ar.swap(p)),
    (LAYER_DOUBLED, "z_spider"): NodeSpec(
        None, "pair", (QUANTUM, QUANTUM),
        lambda p, n, m, a, b: db.z_spider(p, n, m, (a, b)).rel),
    (LAYER_DOUBLED, "x_spider"): NodeSpec(
        None, "pair", (QUANTUM, QUANTUM),
        lambda p, n, m, a, b: db.x_spider(p, n, m, (a, b)).rel),
    (LAYER_DOUBLED, "scaling"): NodeSpec(
        (1, 1), "invertible", (QUANTUM, QUANTUM),
        lambda p, n, m, a, b: db.scaling_gate(p, a).rel),
    (LAYER_DOUBLED, "discard"): NodeSpec(
        (1, 0), "none", (QUANTUM, QUANTUM),
        lambda p, n, m, a, b: db.discard(p).rel),
    (LAYER_DOUBLED, "codiscard"): NodeSpec(
        (0, 1), "none", (QUANTUM, QUANTUM),
        lambda p, n, m, a, b: db.codiscard(p).rel),
    (LAYER_DOUBLED, "measure_z"): NodeSpec(
        (1, 1), "none", (QUANTUM, CLASSICAL),
        lambda p, n, m, a, b: db.measure_z(p).rel),
    (LAYER_DOUBLED, "measure_x"): NodeSpec(
        (1, 1), "none", (QUANTUM, CLASSICAL),
        lambda p, n, m, a, b: db.measure_x(p).rel),
    (LAYER_DOUBLED, "prep_z"): NodeSpec(
        (1, 1), "none", (CLASSICAL, QUANTUM),
        lambda p, n, m, a, b: db.prep_z(p).rel),
    (LAYER_DOUBLED, "prep_x"): NodeSpec(
        (1, 1), "none", (CLASSICAL, QUANTUM),
        lambda p, n, m, a, b: db.prep_x(p).rel),
    (LAYER_DOUBLED, "classical_z_spider"): NodeSpec(
        None, "none", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: db.classical_z_spider(p, n, m).rel),
    (LAYER_DOUBLED, "classical_x_spider"): NodeSpec(
        None, "single", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: db.classical_x_spider(p, n, m, a).rel),
}


def _spec(layer, kind, line=None, at=None) -> NodeSpec:
    """The spec of a node kind; refuses a kind its layer does not have."""
    spec = NODE_SPECS.get((layer, kind))
    if spec is None:
        raise DiagramError("unknown %s-layer node kind %r" % (layer, kind),
                           line, at)
    return spec


def _check_node(layer, p, nd: Node, line=None):
    """Refuse a node whose kind, arity or phase its layer does not allow."""
    kind, a, b = nd.kind, nd.phase[0], nd.phase[1]
    at = ("node", nd.ident)
    spec = _spec(layer, kind, line, at)
    if nd.n_in < 0 or nd.n_out < 0:
        raise DiagramError("negative arity on node %d" % nd.ident, line, at)
    fixed = spec.arity
    if fixed and (nd.n_in, nd.n_out) != fixed:
        raise DiagramError("%s is %d->%d, got %d->%d" %
                           (kind, fixed[0], fixed[1], nd.n_in, nd.n_out),
                           line, at)
    if not (0 <= a < p and 0 <= b < p):
        raise DiagramError("phase %r out of range for p=%d" %
                           (nd.phase, int(p)), line, at)
    rule = spec.phase
    if rule == "none" and (a, b) != (0, 0):
        raise DiagramError("%s takes no phase" % kind, line, at)
    if rule in ("single", "invertible") and b != 0:
        raise DiagramError("%s takes a single phase value" % kind, line, at)
    if rule == "invertible" and a == 0:
        raise DiagramError("%s coefficient must be invertible" % kind, line, at)


# ---------------------------------------------------------------------------
# parsing

_EP_RE = re.compile(r"^(?:n(\d+)\.)?(in|out)(\d+)$")


def _parse_endpoint(tok, line):
    m = _EP_RE.match(tok)
    if not m:
        raise DiagramError("bad endpoint %r" % tok, line)
    ident, side, k = m.groups()
    if ident is None:
        return ("b", side, int(k))
    return ("n", int(ident), side, int(k))


def _parse_keyvals(parts, line):
    out = {}
    for part in parts:
        if "=" not in part:
            raise DiagramError("expected key=value, got %r" % part, line)
        key, _, val = part.partition("=")
        out[key] = val
    return out


def parse(text: str, p=None) -> Diagram:
    """Parse diagram text; raises DiagramError with a line number.

    `p` overrides the file header's prime (all phases must still be in
    range for the overriding value).  A node is checked as it is read,
    so its fault is reported before any later line's.
    """
    override = None if p is None else Prime(p)
    p = None
    layer = None
    nodes: List[Node] = []
    wires = []
    lines: Dict[tuple, int] = {}  # ("node", id) or ("wire", index) -> line
    declared_types: Dict[int, str] = {}
    seen_header = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        if not seen_header:
            m = re.match(r"^p\s*=\s*(\d+)\s*;\s*layer\s*=\s*(\w+)$", stmt)
            if not m:
                raise DiagramError(
                    "expected header 'p=<prime>; layer=<affine|doubled>'",
                    lineno)
            try:
                p = Prime(int(m.group(1))) if override is None else override
            except ValueError as exc:
                raise DiagramError(str(exc), lineno) from None
            layer = m.group(2)
            if layer not in (LAYER_AFFINE, LAYER_DOUBLED):
                raise DiagramError("unknown layer %r" % layer, lineno)
            seen_header = True
            continue
        parts = stmt.split()
        if parts[0] == "node":
            if len(parts) < 3:
                raise DiagramError("node needs an id and a kind", lineno)
            try:
                ident = int(parts[1])
            except ValueError:
                raise DiagramError("bad node id %r" % parts[1], lineno) \
                    from None
            if ("node", ident) in lines:
                raise DiagramError("duplicate node id %d" % ident, lineno)
            kind = parts[2]
            kv = _parse_keyvals(parts[3:], lineno)
            unknown = set(kv) - {"phase", "arity_in", "arity_out"}
            if unknown:
                raise DiagramError("unknown node option %r" % unknown.pop(),
                                   lineno)
            phase = (0, 0)
            if "phase" in kv:
                try:
                    vals = [int(v) for v in kv["phase"].split(",")]
                except ValueError:
                    raise DiagramError("bad phase %r" % kv["phase"],
                                       lineno) from None
                if len(vals) == 1:
                    phase = (vals[0], 0)
                elif len(vals) == 2:
                    phase = (vals[0], vals[1])
                else:
                    raise DiagramError("phase takes one or two values",
                                       lineno)
            try:
                arity = {k: int(kv[k]) for k in ("arity_in", "arity_out")
                         if k in kv}
            except ValueError:
                raise DiagramError("bad arity value", lineno) from None
            n_in, n_out = _spec(layer, kind, lineno).arity or (1, 1)
            nd = Node(ident, kind, phase, arity.get("arity_in", n_in),
                      arity.get("arity_out", n_out))
            _check_node(layer, p, nd, lineno)
            nodes.append(nd)
            lines["node", ident] = lineno
        elif parts[0] == "wire":
            if len(parts) != 3:
                raise DiagramError("wire needs two endpoints", lineno)
            a = _parse_endpoint(parts[1], lineno)
            b = _parse_endpoint(parts[2], lineno)
            lines["wire", len(wires)] = lineno
            wires.append((a, b))
        elif parts[0] == "wiretype":
            if layer != LAYER_DOUBLED:
                raise DiagramError("wiretype only applies to layer=doubled",
                                   lineno)
            if len(parts) != 3 or parts[2] not in (QUANTUM, CLASSICAL):
                raise DiagramError(
                    "usage: wiretype <wire-index> <quantum|classical>",
                    lineno)
            try:
                idx = int(parts[1])
            except ValueError:
                raise DiagramError("bad wire index %r" % parts[1],
                                   lineno) from None
            declared_types[idx] = parts[2]
        else:
            raise DiagramError("unknown statement %r" % parts[0], lineno)

    if not seen_header:
        raise DiagramError("missing header 'p=<prime>; layer=<...>'", 1)

    for idx in declared_types:
        if not 0 <= idx < len(wires):
            raise DiagramError("wiretype index %d out of range" % idx)

    try:
        return Diagram(p, layer, nodes, wires,
                       [declared_types.get(w) for w in range(len(wires))])
    except DiagramError as exc:
        raise DiagramError(str(exc), lines.get(exc.at)) from None


def parse_file(path, p=None) -> Diagram:
    with open(path, "r") as fh:
        return parse(fh.read(), p=p)


def _ep_str(ep) -> str:
    if ep[0] == "b":
        return "%s%d" % (ep[1], ep[2])
    return "n%d.%s%d" % (ep[1], ep[2], ep[3])


# ---------------------------------------------------------------------------
# evaluation

def evaluate(d: Diagram):
    """Compile a diagram to its relation by one global elimination.

    One column per wire coordinate; every node is a part of
    `relation.conjoin` on its wires' columns, and the boundary wires'
    columns are kept.  Returns an AffineRelation (layer=affine) or
    GradedRelation (layer=doubled).
    """
    starts = list(accumulate(map(db.wire_width, d.wire_types), initial=0))
    wire_cols = [range(a, b) for a, b in zip(starts, starts[1:])]
    ncols = starts[-1]

    def cols(eps):
        """Columns of the flat coordinates of the wires at `eps`."""
        return db._flat_cols([wire_cols[d.ends[ep]] for ep in eps])

    # nodes of one kind, arity and phase share their relation
    memo = {}
    parts = []
    for nd in d.nodes:
        key = (nd.kind, nd.n_in, nd.n_out) + nd.phase
        if key not in memo:
            memo[key] = NODE_SPECS[d.layer, nd.kind].build(d.p, *key[1:])
        ports = _ports(nd)
        parts.append((memo[key],
                      cols(ports[:nd.n_in]) + cols(ports[nd.n_in:])))

    dom = cols([("b", "in", k) for k in range(d.n_in)])
    cod = cols([("b", "out", k) for k in range(d.n_out)])
    rel = ar.conjoin(d.p, ncols, parts, dom + cod, len(dom), len(cod))
    if d.layer == LAYER_AFFINE:
        return rel
    return db.GradedRelation(d.p, d.dom_types(), d.cod_types(), rel)


# ---------------------------------------------------------------------------
# combinators

def empty_diagram(p, layer=LAYER_AFFINE) -> Diagram:
    return Diagram(p, layer, (), (), ())


def _moved(d: Diagram, ident, shift=(0, 0)):
    """d's nodes and wires with node i renamed ident(i), and its input and
    output slots moved up by shift[0] and shift[1]."""
    def move(ep):
        if ep[0] == "n":
            return ("n", ident(ep[1]), ep[2], ep[3])
        return ("b", ep[1], ep[2] + shift[ep[1] == "out"])

    nodes = [Node(ident(nd.ident), nd.kind, nd.phase, nd.n_in, nd.n_out)
             for nd in d.nodes]
    return nodes, [(move(a), move(b)) for a, b in d.wires]


def tensor_diagrams(d1: Diagram, d2: Diagram) -> Diagram:
    """Place d2 beside d1; d2's boundary slots follow d1's."""
    if d1.p != d2.p or d1.layer != d2.layer:
        raise DiagramError("diagrams must share p and layer")
    offset = max((nd.ident for nd in d1.nodes), default=-1) + 1
    nodes2, wires2 = _moved(d2, lambda i: i + offset, (d1.n_in, d1.n_out))
    return Diagram(d1.p, d1.layer, list(d1.nodes) + nodes2,
                   list(d1.wires) + wires2, d1.wire_types + d2.wire_types)


def compose_diagrams(d1: Diagram, d2: Diagram) -> Diagram:
    """Glue d1's outputs to d2's inputs (diagram order: d1 then d2).

    evaluate(compose_diagrams(a, b)) equals compose(evaluate(a),
    evaluate(b)).  Closed loops created by the gluing carry no
    constraint (a bare loop is the scalar 'true') and are dropped.
    """
    if d1.p != d2.p or d1.layer != d2.layer:
        raise DiagramError("diagrams must share p and layer")
    if d1.n_out != d2.n_in:
        raise DiagramError("boundary mismatch: %d outputs vs %d inputs"
                           % (d1.n_out, d2.n_in))
    if d1.cod_types() != d2.dom_types():
        raise DiagramError("boundary wire types do not match")
    offset = max((nd.ident for nd in d1.nodes), default=-1) + 1
    nodes2, wires2 = _moved(d2, lambda i: i + offset)

    # junction k joins d1's out<k> with d2's in<k>, two wires of one type;
    # the wires chained through junctions are one class of a union-find,
    # which becomes the wire between its two outer ends, or is dropped as
    # a closed loop
    pairs, types = [], []
    for wires, wire_types, side in ((d1.wires, d1.wire_types, "out"),
                                    (wires2, d2.wire_types, "in")):
        for (a, b), t in zip(wires, wire_types):
            pairs.append([("j", ep[2]) if ep[:2] == ("b", side) else ep
                          for ep in (a, b)])
            types.append(t)
    parent = list(range(len(pairs)))

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    met = {}
    for w, pair in enumerate(pairs):
        for ep in pair:
            if ep[0] == "j":
                parent[find(w)] = find(met.setdefault(ep, w))
    chains: Dict[int, tuple] = {}
    for w, pair in enumerate(pairs):
        outer, _ = chains.setdefault(find(w), ([], types[w]))
        outer.extend(ep for ep in pair if ep[0] != "j")
    kept = [(tuple(outer), t) for outer, t in chains.values() if outer]
    return Diagram(d1.p, d1.layer, list(d1.nodes) + nodes2,
                   [wire for wire, _ in kept], [t for _, t in kept])


def normalize(d: Diagram) -> Diagram:
    """Canonical structural form: node ids in depth-first preorder (an
    explicit stack) from the input slots, the output slots, then unseen
    nodes by id; wires sorted.  Lets syntactically glued diagrams be
    compared to hand-written ones."""
    by_id = {nd.ident: nd for nd in d.nodes}
    order: Dict[int, int] = {}

    def other(ep):
        a, b = d.wires[d.ends[ep]]
        return b if a == ep else a

    stack = ([("n", i) for i in sorted(by_id, reverse=True)]
             + [other(("b", "out", k)) for k in reversed(range(d.n_out))]
             + [other(("b", "in", k)) for k in reversed(range(d.n_in))])
    while stack:
        ep = stack.pop()
        if ep[0] == "n" and ep[1] not in order:
            order[ep[1]] = len(order)
            stack.extend(other(port)
                         for port in reversed(_ports(by_id[ep[1]])))

    nodes, wires = _moved(d, order.__getitem__)
    nodes.sort(key=lambda nd: nd.ident)
    wires = sorted((tuple(sorted(w)), t) for w, t in zip(wires, d.wire_types))
    return Diagram(d.p, d.layer, nodes, [w for w, _ in wires],
                   [t for _, t in wires])


def to_text(d: Diagram) -> str:
    """Serialize a diagram; parse(to_text(d)) reproduces it."""
    lines = ["p=%d; layer=%s" % (d.p, d.layer)]
    for nd in d.nodes:
        parts = ["node %d %s" % (nd.ident, nd.kind)]
        if nd.phase != (0, 0):
            parts.append("phase=%d,%d" % nd.phase)
        if not NODE_SPECS[d.layer, nd.kind].arity:
            parts.append("arity_in=%d" % nd.n_in)
            parts.append("arity_out=%d" % nd.n_out)
        lines.append(" ".join(parts))
    for a, b in d.wires:
        lines.append("wire %s %s" % (_ep_str(a), _ep_str(b)))
    if d.layer == LAYER_DOUBLED:
        for w, t in enumerate(d.wire_types):
            if t == CLASSICAL:
                lines.append("wiretype %d classical" % w)
    return "\n".join(lines) + "\n"
