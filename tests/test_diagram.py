import os
import random

import pytest

from stabrel import cli
from stabrel import diagram as dg
from stabrel import doubled as db
from stabrel import relation as ar
from stabrel.diagram import DiagramError

import oracles

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture(name, p=None):
    return dg.parse_file(os.path.join(FIX, name), p=p)


def test_identity_fixture():
    d = fixture("identity.diagram")
    assert d.n_in == d.n_out == 1 and not d.nodes
    assert dg.evaluate(d) == ar.identity(3, 1)


def test_worked_example_fixture():
    want_rows = [[1, -1, 0, 0, 0, 0], [1, 0, 0, -1, 0, 0],
                 [1, 0, 1, 0, -1, -1]]
    for p in (2, 3, 5):
        got = dg.evaluate(fixture("two_spiders.diagram", p=p))
        assert got == ar.AffineRelation.from_constraints(
            p, 3, 3, want_rows, [0, 0, 0])
        phased = dg.evaluate(fixture("two_spiders_phased.diagram", p=p))
        assert phased == ar.AffineRelation.from_constraints(
            p, 3, 3, want_rows, [0, 0, -1])


def test_dual_fixture_is_complement():
    for p in (2, 3, 5):
        v = dg.evaluate(fixture("two_spiders.diagram", p=p))
        w = dg.evaluate(fixture("two_spiders_dual.diagram", p=p))
        assert w == ar.ortho_complement(v)


def test_empty_fixture():
    assert dg.evaluate(fixture("empty.diagram")) == ar.empty(3, 0, 0)


def test_generator_diagrams_match_direct_construction():
    """Every registered node kind, as a one-node diagram: it parses,
    evaluates to its direct constructor, its builder's widths are those
    of its port types, and `to_text` round-trips it."""
    p, A, D = 5, dg.LAYER_AFFINE, dg.LAYER_DOUBLED
    cases = {
        (A, "z_spider"): ((0, 0), 2, 3, ar.z_spider(p, 2, 3)),
        (A, "x_spider"): ((2, 0), 3, 1, ar.x_spider(p, 3, 1, 2)),
        (A, "scalar"): ((2, 0), 1, 1, ar.scalar(p, 2)),
        (A, "co_scalar"): ((3, 0), 1, 1, ar.co_scalar(p, 3)),
        (A, "affine_unit"): ((0, 0), 0, 1, ar.affine_unit(p)),
        (A, "cup_z"): ((0, 0), 0, 2, ar.cup_z(p)),
        (A, "cap_z"): ((0, 0), 2, 0, ar.cap_z(p)),
        (A, "cup_x"): ((0, 0), 0, 2, ar.cup_x(p)),
        (A, "cap_x"): ((0, 0), 2, 0, ar.cap_x(p)),
        (A, "swap"): ((0, 0), 2, 2, ar.swap(p)),
        (D, "z_spider"): ((1, 2), 1, 2, db.z_spider(p, 1, 2, (1, 2))),
        (D, "x_spider"): ((0, 4), 2, 1, db.x_spider(p, 2, 1, (0, 4))),
        (D, "scaling"): ((2, 0), 1, 1, db.scaling_gate(p, 2)),
        (D, "discard"): ((0, 0), 1, 0, db.discard(p)),
        (D, "codiscard"): ((0, 0), 0, 1, db.codiscard(p)),
        (D, "measure_z"): ((0, 0), 1, 1, db.measure_z(p)),
        (D, "measure_x"): ((0, 0), 1, 1, db.measure_x(p)),
        (D, "prep_z"): ((0, 0), 1, 1, db.prep_z(p)),
        (D, "prep_x"): ((0, 0), 1, 1, db.prep_x(p)),
        (D, "classical_z_spider"): ((0, 0), 2, 1,
                                    db.classical_z_spider(p, 2, 1)),
        (D, "classical_x_spider"): ((2, 0), 1, 2,
                                    db.classical_x_spider(p, 1, 2, 2)),
    }
    assert set(cases) == set(dg.NODE_SPECS)
    for (layer, kind), (phase, n_in, n_out, want) in cases.items():
        spec = dg.NODE_SPECS[layer, kind]
        d = _single_node(p, layer, kind, phase, n_in, n_out)
        assert dg.evaluate(d) == want, kind
        built = spec.build(d.p, n_in, n_out, *phase)
        if layer == A:
            assert (built.dom, built.cod) == (n_in, n_out), kind
        else:
            tin, tout = spec.ports
            assert (want.dom, want.cod) == ((tin,) * n_in, (tout,) * n_out)
            assert (built.dom, built.cod) == (
                db.boundary_width(want.dom), db.boundary_width(want.cod))
        text = dg.to_text(d)
        assert dg.to_text(dg.parse(text)) == text, kind
        assert dg.evaluate(dg.parse(text)) == want, kind


def _single_node(p, layer, kind, phase, n_in, n_out):
    lines = ["p=%d; layer=%s" % (p, layer)]
    opts = ""
    if phase != (0, 0):
        opts += " phase=%d,%d" % phase
    if dg.NODE_SPECS[layer, kind].arity is None:
        opts += " arity_in=%d arity_out=%d" % (n_in, n_out)
    lines.append("node 0 %s%s" % (kind, opts))
    for k in range(n_in):
        lines.append("wire in%d n0.in%d" % (k, k))
    for k in range(n_out):
        lines.append("wire n0.out%d out%d" % (k, k))
    return dg.parse("\n".join(lines))


def test_parse_errors():
    with pytest.raises(DiagramError, match="line 1"):
        dg.parse("bogus\n")
    with pytest.raises(DiagramError, match="not prime"):
        dg.parse("p=6; layer=affine\n")
    with pytest.raises(DiagramError, match="layer"):
        dg.parse("p=3; layer=funky\n")
    with pytest.raises(DiagramError, match="line 2.*unknown"):
        dg.parse("p=3; layer=affine\nnode 0 warp\n")
    # a 3-legged spider wired on only 2 legs: dangling port
    with pytest.raises(DiagramError, match="dangling port"):
        dg.parse("p=3; layer=affine\n"
                 "node 0 z_spider arity_in=1 arity_out=2\n"
                 "wire in0 n0.in0\nwire n0.out0 out0\n")
    with pytest.raises(DiagramError, match="out of range"):
        dg.parse("p=3; layer=affine\n"
                 "node 0 x_spider phase=4 arity_in=1 arity_out=1\n"
                 "wire in0 n0.in0\nwire n0.out0 out0\n")
    with pytest.raises(DiagramError, match="used twice"):
        dg.parse("p=3; layer=affine\nwire in0 out0\nwire in1 out0\n")
    with pytest.raises(DiagramError, match="contiguous"):
        dg.parse("p=3; layer=affine\nwire in1 out0\n")
    with pytest.raises(DiagramError, match="no port"):
        dg.parse("p=3; layer=affine\nnode 0 swap\n"
                 "wire in0 n0.in0\nwire in1 n0.in1\n"
                 "wire n0.out0 out0\nwire n0.out2 out1\n")
    with pytest.raises(DiagramError, match="wiretype"):
        dg.parse("p=3; layer=affine\nwire in0 out0\nwiretype 0 classical\n")
    with pytest.raises(DiagramError, match="invertible"):
        dg.parse("p=3; layer=doubled\nnode 0 scaling phase=0\n"
                 "wire in0 n0.in0\nwire n0.out0 out0\n")
    with pytest.raises(DiagramError, match="single phase"):
        dg.parse("p=3; layer=affine\n"
                 "node 0 x_spider phase=1,1 arity_in=1 arity_out=1\n"
                 "wire in0 n0.in0\nwire n0.out0 out0\n")
    with pytest.raises(DiagramError, match="single phase"):
        dg.parse("p=3; layer=doubled\n"
                 "node 0 classical_x_spider phase=1,1 arity_in=1 "
                 "arity_out=1\nwire in0 n0.in0\nwire n0.out0 out0\n")
    with pytest.raises(DiagramError, match="measure_z takes no phase"):
        dg.parse("p=3; layer=doubled\nnode 0 measure_z phase=1\n"
                 "wire in0 n0.in0\nwire n0.out0 out0\n")
    # a scalar needs no phase: a = 0 is the collapse to zero
    zero = dg.parse("p=3; layer=affine\nnode 0 scalar\n"
                    "wire in0 n0.in0\nwire n0.out0 out0\n")
    assert dg.evaluate(zero) == ar.scalar(3, 0)


def test_p_override():
    d = fixture("two_spiders.diagram", p=7)
    assert d.p == 7
    with pytest.raises(DiagramError):
        fixture("fourier_euler.diagram", p=2)  # phase 2 out of range


def test_classical_bare_wire():
    d = dg.parse("p=3; layer=doubled\nwire in0 out0\nwiretype 0 classical\n")
    got = dg.evaluate(d)
    assert got.dom == (db.CLASSICAL,) and got.cod == (db.CLASSICAL,)
    assert got == db.identity_graded(3, (db.CLASSICAL,))


def test_wire_type_conflict():
    with pytest.raises(DiagramError, match="needs"):
        dg.parse("p=3; layer=doubled\nnode 0 measure_z\n"
                 "wire in0 n0.in0\nwire n0.out0 out0\n"
                 "wiretype 1 quantum\n")


def test_subdivision_and_renumbering_invariance():
    base = fixture("two_spiders.diagram")
    val = dg.evaluate(base)
    # subdivide the middle wire with an identity spider
    sub = dg.parse("""p=3; layer=affine
node 7 z_spider arity_in=2 arity_out=2
node 3 x_spider arity_in=2 arity_out=2
node 5 z_spider arity_in=1 arity_out=1
wire in0 n7.in0
wire in1 n7.in1
wire n7.out0 out0
wire n7.out1 n5.in0
wire n5.out0 n3.in0
wire in2 n3.in1
wire n3.out0 out1
wire n3.out1 out2
""")
    assert dg.evaluate(sub) == val


def test_evaluate_ignores_statement_order():
    a = dg.parse("p=3; layer=affine\nnode 0 swap\n"
                 "wire in0 n0.in0\nwire in1 n0.in1\n"
                 "wire n0.out0 out0\nwire n0.out1 out1\n")
    b = dg.parse("p=3; layer=affine\nnode 0 swap\n"
                 "wire n0.out1 out1\nwire in1 n0.in1\n"
                 "wire n0.out0 out0\nwire in0 n0.in0\n")
    assert dg.evaluate(a) == dg.evaluate(b) == ar.swap(3)


def _random_affine_generator(rng, p, n_in=None):
    kinds = ["z_spider", "x_spider", "scalar", "co_scalar", "affine_unit",
             "cup_z", "cap_z", "cup_x", "cap_x", "swap"]
    while True:
        kind = rng.choice(kinds)
        spec = dg.NODE_SPECS[dg.LAYER_AFFINE, kind]
        if spec.arity is None:
            a, b = (n_in if n_in is not None else rng.randrange(3),
                    rng.randrange(3))
            if a + b == 0:
                continue
        else:
            a, b = spec.arity
        if n_in is not None and a != n_in:
            continue
        phase = (rng.randrange(p), 0) if spec.phase == "single" else (0, 0)
        d = _single_node(p, dg.LAYER_AFFINE, kind, phase, a, b)
        if kind == "z_spider":
            r = ar.z_spider(p, a, b)
        elif kind == "x_spider":
            r = ar.x_spider(p, a, b, phase[0])
        elif kind in ("scalar", "co_scalar"):
            r = getattr(ar, kind)(p, phase[0])
        else:
            r = getattr(ar, kind)(p)
        return d, r


def test_combinators_commute_with_evaluation():
    rng = random.Random(47)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        d1, r1 = _random_affine_generator(rng, p)
        if rng.random() < 0.5:
            d2, r2 = _random_affine_generator(rng, p)
            got = dg.evaluate(dg.tensor_diagrams(d1, d2))
            assert got == ar.tensor(r1, r2)
        else:
            d2, r2 = _random_affine_generator(rng, p, n_in=r1.cod)
            got = dg.evaluate(dg.compose_diagrams(d1, d2))
            assert got == ar.compose(r1, r2)


def test_compose_chains_and_loops():
    p = 3
    # boundary-to-boundary chains survive gluing
    ident = fixture("identity.diagram")
    assert dg.evaluate(dg.compose_diagrams(ident, ident)) == ar.identity(3, 1)
    # cup node into cap node: a closed ring, the full scalar
    cup = _single_node(p, dg.LAYER_AFFINE, "cup_z", (0, 0), 0, 2)
    cap = _single_node(p, dg.LAYER_AFFINE, "cap_z", (0, 0), 2, 0)
    glued = dg.compose_diagrams(cup, cap)
    assert dg.evaluate(glued) == ar.total(p, 0, 0)
    # gluing two bare bent wires leaves nothing at all
    bent_up = dg.parse("p=3; layer=affine\nwire out0 out1\n")
    bent_down = dg.parse("p=3; layer=affine\nwire in0 in1\n")
    ring = dg.compose_diagrams(bent_up, bent_down)
    assert not ring.wires and not ring.nodes
    assert dg.evaluate(ring) == ar.total(p, 0, 0)
    assert dg.evaluate(bent_up) == ar.cup_z(p)
    with pytest.raises(DiagramError, match="mismatch"):
        dg.compose_diagrams(cup, cup)


def test_compose_refuses_wires_of_different_type():
    quantum = dg.parse("p=3; layer=doubled\nwire in0 out0\n")
    classical = dg.parse("p=3; layer=doubled\nwire in0 out0\n"
                         "wiretype 0 classical\n")
    with pytest.raises(DiagramError, match="boundary wire types do not match"):
        dg.compose_diagrams(quantum, classical)
    # by hand: out0 ends two wires of different types, which the
    # constructor refuses, so no diagram reaching compose can hold them
    with pytest.raises(DiagramError, match="^endpoint out0 used twice$"):
        dg.Diagram(3, dg.LAYER_DOUBLED, [],
                   [(("b", "in", 0), ("b", "out", 0)),
                    (("b", "in", 1), ("b", "out", 0))],
                   [db.QUANTUM, db.CLASSICAL])


def test_tensor_with_blank_diagram():
    blank = dg.empty_diagram(3, dg.LAYER_AFFINE)
    d = fixture("two_spiders.diagram")
    left = dg.tensor_diagrams(blank, d)
    right = dg.tensor_diagrams(d, blank)
    assert dg.evaluate(left) == dg.evaluate(right) == dg.evaluate(d)


def test_teleport_fixture():
    # the last two primes are past the int64-exact range
    for p in (2, 3, 5, 2 ** 31 - 1, 4294967311, 2 ** 61 - 1):
        got = dg.evaluate(fixture("teleport.diagram", p=p))
        assert got == db.identity_relation(p, 1)


def test_glued_teleport_matches_shipped_fixture():
    """Building teleportation from staged pieces reproduces the shipped
    file up to renumbering."""
    bell = """p=3; layer=doubled
node 0 z_spider arity_in=0 arity_out=2
wire in0 out0
wire n0.out0 out1
wire n0.out1 out2
"""
    entangle = """p=3; layer=doubled
node 0 x_spider arity_in=1 arity_out=2
node 1 z_spider arity_in=2 arity_out=1
wire in0 n1.in0
wire in1 n0.in0
wire n0.out1 n1.in1
wire n1.out0 out0
wire n0.out0 out1
wire in2 out2
"""
    measure = """p=3; layer=doubled
node 0 measure_x
node 1 measure_z
wire in0 n0.in0
wire in1 n1.in0
wire n0.out0 out0
wire n1.out0 out1
wire in2 out2
"""
    correct = """p=3; layer=doubled
node 0 prep_x
node 1 x_spider arity_in=1 arity_out=2
node 2 z_spider arity_in=2 arity_out=1
node 3 discard
node 4 prep_z
node 5 z_spider arity_in=2 arity_out=1
node 6 x_spider arity_in=1 arity_out=2
node 7 discard
wire in0 n0.in0
wire in1 n4.in0
wire in2 n2.in0
wire n0.out0 n1.in0
wire n1.out1 n2.in1
wire n1.out0 n3.in0
wire n2.out0 n6.in0
wire n4.out0 n5.in0
wire n6.out1 n5.in1
wire n5.out0 n7.in0
wire n6.out0 out0
"""
    glued = dg.compose_diagrams(
        dg.compose_diagrams(dg.parse(bell), dg.parse(entangle)),
        dg.compose_diagrams(dg.parse(measure), dg.parse(correct)))
    shipped = fixture("teleport.diagram")
    assert dg.to_text(dg.normalize(glued)) == \
        dg.to_text(dg.normalize(shipped))
    assert dg.evaluate(glued) == db.identity_relation(3, 1)


def test_normalize_numbers_nodes_in_depth_first_preorder():
    """From in0 the walk goes n0, then down n0.out0 to its end before it
    takes n0.out1; breadth first would number the x_spider 2."""
    d = dg.parse("""p=3; layer=doubled
node 5 z_spider arity_in=1 arity_out=2
node 7 z_spider
node 3 x_spider
node 9 z_spider
wire in0 n5.in0
wire n5.out1 n9.in0
wire n5.out0 n7.in0
wire n7.out0 n3.in0
wire n3.out0 out0
wire n9.out0 out1
""")
    assert dg.to_text(dg.normalize(d)) == """p=3; layer=doubled
node 0 z_spider arity_in=1 arity_out=2
node 1 z_spider arity_in=1 arity_out=1
node 2 x_spider arity_in=1 arity_out=1
node 3 z_spider arity_in=1 arity_out=1
wire in0 n0.in0
wire out0 n2.out0
wire out1 n3.out0
wire n0.out0 n1.in0
wire n0.out1 n3.in0
wire n1.out0 n2.in0
"""


def test_normalize_walks_a_long_chain():
    """A chain of 5000 spiders, numbered against its order, is renumbered
    along it without recursing once per node."""
    size = 5000
    ident = [size - 1 - i for i in range(size)]
    ends = ([("b", "in", 0)] + [("n", i, "out", 0) for i in ident],
            [("n", i, "in", 0) for i in ident] + [("b", "out", 0)])
    chain = dg.Diagram(3, dg.LAYER_DOUBLED,
                       [dg.Node(i, "z_spider") for i in ident],
                       list(zip(*ends)), [None] * (size + 1))
    got = dg.normalize(chain)
    assert [nd.ident for nd in got.nodes] == list(range(size))
    assert set(got.wires) == (
        {(("b", "in", 0), ("n", 0, "in", 0)),
         (("b", "out", 0), ("n", size - 1, "out", 0))}
        | {(("n", i, "out", 0), ("n", i + 1, "in", 0))
           for i in range(size - 1)})


def test_box_nodes_are_unknown_kinds(capsys, tmp_path):
    """A sub-diagram enters by splicing, not as a `box:` node, which
    parses as an unknown kind at its line."""
    text = ("p=3; layer=doubled\n"
            "node 0 box:fourier arity_in=1 arity_out=1\n"
            "wire in0 n0.in0\nwire n0.out0 out0\n")
    with pytest.raises(DiagramError, match="^line 2: unknown doubled-layer "
                       "node kind 'box:fourier'$"):
        dg.parse(text)
    path = tmp_path / "boxed.diagram"
    path.write_text(text)
    assert cli.main(["eval", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: line 2: unknown")
    euler = fixture("fourier_euler.diagram")
    f = db.fourier(3)
    assert dg.evaluate(dg.compose_diagrams(euler, euler)) == db.compose(f, f)


def test_huge_declared_arity_is_refused_at_once():
    """The first dangling port is found without listing the ports."""
    for side in ("in", "out"):
        text = ("p=3; layer=doubled\n"
                "node 0 z_spider arity_%s=%d\n"
                "wire in0 n0.in0\nwire n0.out0 out0\n" % (side, 10 ** 20))
        with pytest.raises(DiagramError,
                           match="^line 2: dangling port n0.%s1$" % side):
            dg.parse(text)


def test_euler_fixture_pair():
    # the fixtures' literal phases spell -1 at their header prime
    a = dg.evaluate(fixture("fourier_euler.diagram"))
    b = dg.evaluate(fixture("fourier_euler_alt.diagram"))
    assert a == b == db.fourier(3)


PRESENTATION_PAIRS = [
    ("eq_fusion_lhs.diagram", "eq_fusion_rhs.diagram"),
    ("eq_copy_unit_lhs.diagram", "eq_copy_unit_rhs.diagram"),
    ("eq_delete_unit_lhs.diagram", "eq_delete_unit_rhs.diagram"),
    ("eq_bend_lhs.diagram", "eq_bend_rhs.diagram"),
    ("eq_snake_lhs.diagram", "identity.diagram"),
    ("eq_pz_idem_lhs.diagram", "decohered_identity.diagram"),
    ("decohered_identity.diagram", "eq_pz_split_rhs.diagram"),
    ("eq_total_classical_lhs.diagram", "eq_total_classical_rhs.diagram"),
    ("eq_bastard_fusion_lhs.diagram", "eq_bastard_fusion_rhs.diagram"),
]


def test_presentation_equation_fixtures():
    for lhs, rhs in PRESENTATION_PAIRS:
        for p in (2, 3, 5):
            a = dg.evaluate(fixture(lhs, p=p))
            b = dg.evaluate(fixture(rhs, p=p))
            assert a == b, (lhs, p)


def test_decohered_identity_subset_direction():
    ident = dg.evaluate(fixture("identity_channel.diagram"))
    deco = dg.evaluate(fixture("decohered_identity.diagram"))
    assert db.subset(ident, deco) and not db.subset(deco, ident)


def test_to_text_round_trip():
    for name in ("two_spiders.diagram", "teleport.diagram",
                 "eq_total_classical_rhs.diagram"):
        d = fixture(name)
        text = dg.to_text(d)
        assert dg.to_text(dg.parse(text)) == text
        assert dg.evaluate(dg.parse(text)) == dg.evaluate(d)


def test_repeated_kinds_keep_their_own_phase_and_arity():
    # same kind and arity with different phases, and same kind and
    # phase with different arities, in one diagram
    d = dg.parse("""p=5; layer=doubled
node 0 z_spider phase=1,0 arity_in=1 arity_out=1
node 1 z_spider phase=2,3 arity_in=1 arity_out=1
node 2 z_spider phase=2,3 arity_in=1 arity_out=2
node 3 x_spider phase=2,3 arity_in=2 arity_out=1
node 4 x_spider phase=2,3 arity_in=1 arity_out=1
node 5 x_spider phase=4,1 arity_in=1 arity_out=1
node 6 z_spider phase=1,0 arity_in=1 arity_out=1
wire in0 n0.in0
wire n0.out0 n1.in0
wire n1.out0 n2.in0
wire n2.out0 n3.in0
wire n2.out1 n3.in1
wire n3.out0 n4.in0
wire n4.out0 n5.in0
wire n5.out0 out0
wire in1 n6.in0
wire n6.out0 out1
""")
    p = 5
    chain = db.compose_all(db.z_spider(p, 1, 1, (1, 0)),
                           db.z_spider(p, 1, 1, (2, 3)),
                           db.z_spider(p, 1, 2, (2, 3)),
                           db.x_spider(p, 2, 1, (2, 3)),
                           db.x_spider(p, 1, 1, (2, 3)),
                           db.x_spider(p, 1, 1, (4, 1)))
    assert dg.evaluate(d) == db.tensor(chain, db.z_spider(p, 1, 1, (1, 0)))

    a = dg.parse("""p=7; layer=affine
node 0 scalar phase=2
node 1 scalar phase=3
node 2 x_spider phase=1 arity_in=1 arity_out=2
node 3 x_spider phase=1 arity_in=2 arity_out=1
node 4 x_spider phase=5 arity_in=1 arity_out=1
node 5 scalar phase=2
wire in0 n0.in0
wire n0.out0 n1.in0
wire n1.out0 n2.in0
wire n2.out0 n3.in0
wire n2.out1 n3.in1
wire n3.out0 n4.in0
wire n4.out0 out0
wire in1 n5.in0
wire n5.out0 out1
""")
    p = 7
    chain = ar.compose_all(ar.scalar(p, 2), ar.scalar(p, 3),
                           ar.x_spider(p, 1, 2, 1), ar.x_spider(p, 2, 1, 1),
                           ar.x_spider(p, 1, 1, 5))
    assert dg.evaluate(a) == ar.tensor(chain, ar.scalar(p, 2))


def test_teleport_chain_fuses():
    """Four teleports with one-wire spiders between them: teleportation is
    the identity, so the chain fuses to one Z and one X spider."""
    rng = random.Random(53)
    for p in (3, 5, 7):
        tele = fixture("teleport.diagram", p=p)
        chain, total = tele, {"z_spider": [0, 0], "x_spider": [0, 0]}
        for kind in ("z_spider", "z_spider", "x_spider", "x_spider"):
            phase = (rng.randrange(p), rng.randrange(p))
            total[kind] = [(s + v) % p for s, v in zip(total[kind], phase)]
            spider = _single_node(p, dg.LAYER_DOUBLED, kind, phase, 1, 1)
            chain = dg.compose_diagrams(dg.compose_diagrams(chain, spider),
                                        tele)
        got = dg.evaluate(dg.parse(dg.to_text(chain)))
        z, x = tuple(total["z_spider"]), tuple(total["x_spider"])
        want = dg.compose_diagrams(
            _single_node(p, dg.LAYER_DOUBLED, "z_spider", z, 1, 1),
            _single_node(p, dg.LAYER_DOUBLED, "x_spider", x, 1, 1))
        assert got == dg.evaluate(dg.parse(dg.to_text(want)))
        bumped = db.compose(db.z_spider(p, 1, 1, (z[0], z[1] + 1)),
                            db.x_spider(p, 1, 1, x))
        assert got != bumped


def test_self_loop_adds_both_ports_coefficients():
    """A wire joining two ports of one node puts both ports' coefficients
    on one column, where they add."""
    a = dg.parse("p=5; layer=affine\n"
                 "node 0 x_spider phase=2 arity_in=1 arity_out=2\n"
                 "wire n0.out1 n0.in0\nwire n0.out0 out0\n")
    got = dg.evaluate(a)
    assert got.rep.basis.tolist() == [[1, 3]]  # out0 = 2
    # (in0, out0, out1) with out1 = in0, projected on out0
    spider = oracles.rel_points(ar.x_spider(5, 1, 2, 2))
    assert oracles.rel_points(got) == {(v[1],) for v in spider if v[2] == v[0]}

    d = dg.parse("p=5; layer=doubled\n"
                 "node 0 z_spider phase=1,0 arity_in=1 arity_out=2\n"
                 "wire n0.out1 n0.in0\nwire n0.out0 out0\n")
    got = dg.evaluate(d)
    assert got.rel.rep.basis.tolist() == [[1, 0, 1], [0, 1, 0]]
    # (z_in, x_in, z_out0, z_out1, x_out0, x_out1), out1 = in0
    spider = oracles.graded_rel_points(db.z_spider(5, 1, 2, (1, 0)))
    assert oracles.graded_rel_points(got) == {
        (v[2], v[4]) for v in spider if (v[3], v[5]) == (v[0], v[1])}


def _b(side, k):
    return ("b", side, k)


def _n(ident, side, k):
    return ("n", ident, side, k)


def test_hand_built_diagrams_are_checked_when_built():
    """The constructor refuses each wiring fault with the message `parse`
    gives for it, without a line number."""
    A, D = dg.LAYER_AFFINE, dg.LAYER_DOUBLED
    spider = dg.Node(0, "z_spider", n_in=1, n_out=1)
    measure = dg.Node(0, "measure_z")
    through = [(_b("in", 0), _n(0, "in", 0)), (_n(0, "out", 0), _b("out", 0))]
    cases = [
        ("endpoint out0 used twice", A, [],
         [(_b("in", 0), _b("out", 0)), (_b("in", 1), _b("out", 0))]),
        ("dangling port n0.out0", A, [spider], through[:1]),
        ("wire references missing node 4", A, [],
         [(_b("in", 0), _n(4, "in", 0))]),
        ("node 0 has no port out2", A, [spider],
         through + [(_n(0, "out", 2), _b("out", 1))]),
        ("boundary in-slots not contiguous from 0", A, [],
         [(_b("in", 1), _b("out", 0))]),
        ("boundary out-slots not contiguous from 0", D, [],
         [(_b("in", 0), _b("out", 1))]),
        ("wire joins an endpoint to itself", A, [],
         [(_b("in", 0), _b("in", 0))]),
    ]
    for message, layer, nodes, wires in cases:
        with pytest.raises(DiagramError, match="^%s$" % message):
            dg.Diagram(3, layer, nodes, wires, [None] * len(wires))
    typed = [
        # measure_z's output is classical
        ("wire 1 is quantum but port n0.out0 needs classical", D, [measure],
         through, [None, db.QUANTUM]),
        # every wire of the affine layer is classical
        ("wiretype only applies to layer=doubled", A, [spider],
         through, [None, db.QUANTUM]),
        ("wiretype only applies to layer=doubled", A, [],
         [(_b("in", 0), _b("out", 0))], [db.QUANTUM]),
    ]
    for message, layer, nodes, wires, types in typed:
        with pytest.raises(DiagramError, match="^%s$" % message) as info:
            dg.Diagram(3, layer, nodes, wires, types)
        assert info.value.line is None


def test_hand_built_nodes_are_checked_when_built():
    """The constructor refuses a repeated node id and a node its layer
    does not allow, with the message `parse` gives at the node's line."""
    D = dg.LAYER_DOUBLED
    spider = dg.Node(0, "z_spider", n_in=1, n_out=1)
    through = [(_b("in", 0), _n(0, "in", 0)), (_n(0, "out", 0), _b("out", 0))]
    cases = [
        ("duplicate node id 0", [spider, dg.Node(0, "measure_z")], through,
         "node 0 z_spider\nnode 0 measure_z\n"),
        ("unknown doubled-layer node kind 'warp'", [dg.Node(0, "warp")],
         through, "node 0 warp\n"),
        ("measure_z is 1->1, got 2->1",
         [dg.Node(0, "measure_z", n_in=2)], through,
         "node 0 measure_z arity_in=2\n"),
        ("phase \\(3, 0\\) out of range for p=3",
         [dg.Node(0, "z_spider", (3, 0))], through,
         "node 0 z_spider phase=3,0\n"),
        ("measure_z takes no phase", [dg.Node(0, "measure_z", (1, 0))],
         through, "node 0 measure_z phase=1\n"),
    ]
    wire_text = "wire in0 n0.in0\nwire n0.out0 out0\n"
    for message, nodes, wires, node_text in cases:
        with pytest.raises(DiagramError, match="^%s$" % message) as info:
            dg.Diagram(3, D, nodes, wires, [None] * len(wires))
        assert info.value.at == ("node", 0) and info.value.line is None
        line = node_text.count("\n") + 1
        with pytest.raises(DiagramError,
                           match="^line %d: %s$" % (line, message)):
            dg.parse("p=3; layer=doubled\n" + node_text + wire_text)
    # parse checks a node as it reads it: the first faulty line is named
    for text, message in [
            ("node 0 warp\nnode 0 z_spider\n",
             "line 2: unknown doubled-layer node kind 'warp'"),
            ("node 0 z_spider\nnode 0 measure_z\nnode 0 x_spider\n",
             "line 3: duplicate node id 0"),
            ("node 0 warp\nbogus\n",
             "line 2: unknown doubled-layer node kind 'warp'")]:
        with pytest.raises(DiagramError, match="^%s$" % message):
            dg.parse("p=3; layer=doubled\n" + text + wire_text)


def test_boundary_is_read_off_the_wiring():
    """n_in, n_out, the boundary types and each endpoint's wire come from
    the wire list; an unset type is the first generator port's, or else
    the layer's kind."""
    measure = dg.Node(7, "measure_x")
    d = dg.Diagram(5, dg.LAYER_DOUBLED, [measure],
                   [(_n(7, "out", 0), _b("out", 1)),
                    (_b("in", 0), _n(7, "in", 0)),
                    (_b("in", 1), _b("out", 0)),
                    (_b("out", 2), _b("out", 3))],
                   [None, None, db.CLASSICAL, None])
    assert (d.n_in, d.n_out) == (2, 4)
    assert d.wire_types == (db.CLASSICAL, db.QUANTUM, db.CLASSICAL,
                            db.QUANTUM)
    assert d.dom_types() == (db.QUANTUM, db.CLASSICAL)
    assert d.cod_types() == (db.CLASSICAL, db.CLASSICAL, db.QUANTUM,
                             db.QUANTUM)
    assert d.ends == {_n(7, "out", 0): 0, _b("out", 1): 0,
                      _b("in", 0): 1, _n(7, "in", 0): 1,
                      _b("in", 1): 2, _b("out", 0): 2,
                      _b("out", 2): 3, _b("out", 3): 3}
    blank = dg.empty_diagram(3, dg.LAYER_AFFINE)
    assert (blank.n_in, blank.n_out, blank.ends) == (0, 0, {})
    bent = dg.parse("p=3; layer=affine\nwire out1 in0\nwire out0 in1\n")
    assert (bent.n_in, bent.n_out) == (2, 2)
    assert bent.wire_types == (db.CLASSICAL, db.CLASSICAL)


def test_parse_adds_the_line_of_the_wire_or_node_at_fault():
    with pytest.raises(DiagramError, match="^line 4: endpoint n0.in0 used twice$"):
        dg.parse("p=3; layer=doubled\nnode 0 measure_z\n"
                 "wire in0 n0.in0\nwire in1 n0.in0\nwire n0.out0 out0\n")
    with pytest.raises(DiagramError, match="^line 3: dangling port n1.in1$"):
        dg.parse("p=3; layer=affine\nnode 0 swap\n"
                 "node 1 z_spider arity_in=2 arity_out=0\n"
                 "wire in0 n0.in0\nwire in1 n0.in1\nwire n0.out0 n1.in0\n"
                 "wire n0.out1 out0\n")
    with pytest.raises(DiagramError,
                       match="^line 6: wire 2 is classical but port "
                             "n1.out0 needs quantum$"):
        dg.parse("p=3; layer=doubled\nnode 0 measure_z\nnode 1 prep_z\n"
                 "wire in0 n0.in0\nwire n0.out0 n1.in0\nwire n1.out0 out0\n"
                 "wiretype 2 classical\n")


def _spider_network(rng, p):
    """Texts of a random network of affine z and x spiders and of its
    doubled twin: the same wiring of classical spiders, every wire
    declared classical."""
    ports, affine, twin = [], [], []
    for ident in range(rng.randint(1, 5)):
        kind = rng.choice(("z_spider", "x_spider"))
        n, m = rng.randrange(3), rng.randrange(3)
        phase = " phase=%d" % rng.randrange(p) if kind == "x_spider" else ""
        for layer, prefix in ((affine, ""), (twin, "classical_")):
            layer.append("node %d %s%s%s arity_in=%d arity_out=%d"
                         % (ident, prefix, kind, phase, n, m))
        ports += ["n%d.in%d" % (ident, k) for k in range(n)]
        ports += ["n%d.out%d" % (ident, k) for k in range(m)]
    n_in, n_out = rng.randrange(3), rng.randrange(3)
    n_out += (len(ports) + n_in + n_out) % 2
    ends = (ports + ["in%d" % k for k in range(n_in)]
            + ["out%d" % k for k in range(n_out)])
    rng.shuffle(ends)
    wires = ["wire %s %s" % pair for pair in zip(ends[::2], ends[1::2])]
    affine = ["p=%d; layer=affine" % p] + affine + wires
    twin = (["p=%d; layer=doubled" % p] + twin + wires
            + ["wiretype %d classical" % w for w in range(len(wires))])
    return "\n".join(affine) + "\n", "\n".join(twin) + "\n"


def test_affine_networks_equal_their_classical_twins():
    """The affine layer is the classical fragment of the doubled one: a
    network of affine spiders evaluates to the flat relation of the same
    network of classical spiders on classical wires."""
    rng = random.Random(61)
    for p in (2, 3, 5, 7, 2**61 - 1):
        for _ in range(25):
            affine, twin = _spider_network(rng, p)
            a, t = dg.evaluate(dg.parse(affine)), dg.evaluate(dg.parse(twin))
            assert t.dom == (db.CLASSICAL,) * a.dom, twin
            assert t.cod == (db.CLASSICAL,) * a.cod, twin
            assert a == t.rel, affine
