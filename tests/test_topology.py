import copy
import json
import pickle
from dataclasses import replace

import pytest

from rlnoc.topology import (
    MAX_GRID_SIDE,
    Coord,
    Ring,
    Topology,
    TopologyError,
    generate_multi_ring,
    load_topology,
    load_topology_file,
    select_ring,
    topology_to_doc,
)


def all_pairs(topology):
    cells = [Coord(c, r) for r in range(topology.height) for c in range(topology.width)]
    return [(a, b) for a in cells for b in cells if a != b]


class TestGenerator:
    def test_smallest_grid_is_a_single_four_switch_ring(self):
        topo = generate_multi_ring(2, 2)
        assert len(topo.rings) == 1
        assert topo.rings[0].size == 4
        Topology(topo.width, topo.height, topo.rings)

    @pytest.mark.parametrize("width,height", [(2, 2), (2, 5), (4, 4), (5, 3), (7, 6),
                                              (MAX_GRID_SIDE, MAX_GRID_SIDE)])
    def test_passes_validation_with_documented_ring_count(self, width, height):
        topo = generate_multi_ring(width, height)
        # C(height,2) row bands + C(width,2) column bands + the nested
        # rectangles, minus the outer perimeter counted three times.
        assert len(topo.rings) == (height * (height - 1) // 2 + width * (width - 1) // 2
                                   + min(width, height) // 2 - 2)
        # No two rings are rotations of one cycle.
        cycles = set()
        for ring in topo.rings:
            pivot = ring.switches.index(min(ring.switches))
            cycles.add(ring.switches[pivot:] + ring.switches[:pivot])
        assert len(cycles) == len(topo.rings)
        Topology(topo.width, topo.height, topo.rings)

    def test_3x5_full_connectivity_exhaustive(self):
        topo = generate_multi_ring(3, 5)
        membership = {}
        for ring in topo.rings:
            for sw in ring.switches:
                membership.setdefault(sw, set()).add(ring.id)
        for a, b in all_pairs(topo):
            assert membership[a] & membership[b], (a, b)

    def test_deterministic(self):
        assert generate_multi_ring(5, 4).rings == generate_multi_ring(5, 4).rings

    @pytest.mark.parametrize("dims", [(1, 4), (4, 1), (0, 0), (1, 1)])
    def test_small_dimensions_rejected(self, dims):
        message = ("grid dimensions must be positive" if 0 in dims
                   else "generate_multi_ring requires width >= 2 and height >= 2")
        with pytest.raises(TopologyError, match=f"^{message}$"):
            generate_multi_ring(*dims)

    def test_float_side_is_rejected_after_its_integers_call(self):
        generate_multi_ring(2, 2)
        with pytest.raises(TopologyError, match=r"^missing or non-integer field 'width'$"):
            generate_multi_ring(2.0, 2)


class TestPathFunctions:
    """Ring paths: positions along the switch order and hop counts."""

    @staticmethod
    def walk(ring, src, dst):
        start = ring.position(src)
        return tuple(ring.switches[(start + k) % ring.size]
                     for k in range(ring.hops(src, dst) + 1))

    def test_long_way_around(self, six_ring_topology):
        ring = six_ring_topology.rings[0]
        assert ring.hops((2, 0), (0, 0)) == 4
        assert self.walk(ring, (2, 0), (0, 0)) == (
            Coord(2, 0), Coord(2, 1), Coord(1, 1), Coord(0, 1), Coord(0, 0))

    def test_adjacent_pair(self, six_ring_topology):
        ring = six_ring_topology.rings[0]
        assert ring.hops((2, 0), (2, 1)) == 1
        assert self.walk(ring, (2, 0), (2, 1)) == (Coord(2, 0), Coord(2, 1))

    def test_path_dpath_relation_all_pairs_all_rings(self):
        # Going from a to b and on back to a is exactly one circle.
        topo = generate_multi_ring(4, 4)
        for ring in topo.rings:
            for a in ring.switches:
                for b in ring.switches:
                    if a == b:
                        continue
                    assert 0 < ring.hops(a, b) < ring.size
                    assert ring.hops(a, b) + ring.hops(b, a) == ring.size

    def test_not_on_ring(self, ten_ring_fixture):
        ring = ten_ring_fixture.ring(0)  # rows 0-1 band
        assert (0, 3) not in ring
        with pytest.raises(TopologyError, match=r"^switch \(0, 3\) is not on ring 0$"):
            ring.position((0, 3))
        with pytest.raises(TopologyError, match=r"^switch \(0, 3\) is not on ring 0$"):
            ring.hops((0, 0), (0, 3))

    def test_lookups_take_a_coord_a_tuple_or_a_list_alike(self, ten_ring_fixture):
        # A Coord is looked up as it is; any other argument is wrapped first.
        topo = ten_ring_fixture
        ring = topo.ring(0)
        for a in ring.switches:
            for form in (tuple, list):
                assert form(a) in ring
                assert ring.position(form(a)) == ring.position(a)
                for b in ring.switches:
                    assert ring.hops(form(a), form(b)) == ring.hops(a, b)
                    if a != b:
                        assert (select_ring(topo, form(a), form(b))
                                == select_ring(topo, a, b))
        for off in (Coord(0, 3), (0, 3), [0, 3]):
            assert off not in ring
            with pytest.raises(TopologyError, match=r"^switch \(0, 3\) is not on ring 0$"):
                ring.position(off)
        with pytest.raises(TypeError):
            ring.position((0, 0, 0))

    def test_same_endpoints_rejected(self, six_ring_topology):
        assert six_ring_topology.rings[0].hops((0, 0), (0, 0)) == 0
        with pytest.raises(ValueError):
            select_ring(six_ring_topology, (0, 0), (0, 0))


class TestRouting:
    def test_single_ring_pair_routes_there(self, six_ring_topology):
        assert select_ring(six_ring_topology, (0, 0), (1, 1)) == 0

    def test_hop_minimality_exhaustive(self, ten_ring_fixture):
        topo = ten_ring_fixture
        for a, b in all_pairs(topo):
            chosen = topo.ring(select_ring(topo, a, b))
            best = chosen.hops(a, b)
            for ring in topo.rings:
                if a in ring and b in ring:
                    assert best <= ring.hops(a, b)

    def test_tie_breaks_to_lowest_ring_id(self, ten_ring_fixture):
        topo = ten_ring_fixture
        for a, b in all_pairs(topo):
            chosen = topo.ring(select_ring(topo, a, b))
            for ring in topo.rings:
                if ring.id >= chosen.id or a not in ring or b not in ring:
                    continue
                assert ring.hops(a, b) > chosen.hops(a, b)

    @pytest.mark.parametrize("dims", [(w, h) for w in range(2, 7) for h in range(2, 7)]
                             + ["fixture"])
    def test_routing_equals_a_plain_recomputation(self, dims, ten_ring_fixture):
        # The route is the minimum (hops, ring id) over every ring that holds
        # both cores, computed here without the positions index.
        topo = ten_ring_fixture if dims == "fixture" else generate_multi_ring(*dims)
        plain = {(a, b): min((ring.hops(a, b), ring.id) for ring in topo.rings
                             if a in ring.switches and b in ring.switches)[1]
                 for a, b in all_pairs(topo)}
        assert {(a, b): select_ring(topo, a, b) for a, b in all_pairs(topo)} == plain


class TestHashing:
    def test_equal_topologies_hash_equal(self, ten_ring_fixture):
        topo = generate_multi_ring(4, 4)
        assert hash(topo) == hash(generate_multi_ring(4, 4))
        assert hash(replace(topo, rings=topo.rings)) == hash(topo)
        rebuilt = replace(ten_ring_fixture, rings=ten_ring_fixture.rings)
        assert rebuilt == ten_ring_fixture
        assert hash(rebuilt) == hash(ten_ring_fixture)
        assert {topo, generate_multi_ring(4, 4), ten_ring_fixture} == {topo, ten_ring_fixture}

    def test_copies_and_pickles_keep_equality_and_routes(self, ten_ring_fixture):
        for topo in (generate_multi_ring(3, 4), replace(ten_ring_fixture)):
            # Clones taken before any lookup derive their own routes; clones
            # taken after carry the filled memo.
            before = (copy.copy(topo), copy.deepcopy(topo), pickle.loads(pickle.dumps(topo)))
            routes = [select_ring(topo, a, b) for a, b in all_pairs(topo)]
            after = (copy.copy(topo), copy.deepcopy(topo), pickle.loads(pickle.dumps(topo)))
            for clone in before + after:
                assert clone == topo and hash(clone) == hash(topo)
                assert [select_ring(clone, a, b) for a, b in all_pairs(clone)] == routes


class TestLoader:
    def test_fixture_loads_with_ten_rings(self, ten_ring_fixture):
        assert len(ten_ring_fixture.rings) == 10
        Topology(ten_ring_fixture.width, ten_ring_fixture.height, ten_ring_fixture.rings)

    def test_duplicate_switch_rejected(self):
        doc = {"width": 2, "height": 2, "rings": [
            {"id": 0, "switches": [[0, 0], [1, 0], [1, 1], [1, 0]]}]}
        with pytest.raises(TopologyError, match=r"^ring 0 lists switch \(1, 0\) twice$"):
            load_topology(doc)

    def test_non_neighbour_rejected(self):
        doc = {"width": 3, "height": 2, "rings": [
            {"id": 0, "switches": [[0, 0], [2, 0], [2, 1], [0, 1]]}]}
        with pytest.raises(TopologyError,
                           match=r"^ring 0: switches \(0, 0\) and \(2, 0\) are not neighbours$"):
            load_topology(doc)

    def test_missing_pair_names_the_pair(self):
        doc = {"width": 3, "height": 2, "rings": [
            {"id": 0, "switches": [[0, 0], [1, 0], [1, 1], [0, 1]]}]}
        with pytest.raises(TopologyError, match=r"^core \(2, 0\) is on no ring$"):
            load_topology(doc)

    def test_cores_on_disjoint_rings_name_the_first_pair(self):
        # Every core is on a ring, so the pair check is what fails.
        doc = {"width": 4, "height": 2, "rings": [
            {"id": 0, "switches": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            {"id": 1, "switches": [[2, 0], [3, 0], [3, 1], [2, 1]]}]}
        with pytest.raises(TopologyError,
                           match=r"^cores \(0, 0\) and \(2, 0\) share no ring$"):
            load_topology(doc)

    def test_uncovered_core_is_named_without_listing_the_grid(self):
        # The first core on no ring, in row-major order, is reported.
        doc = {"width": MAX_GRID_SIDE, "height": MAX_GRID_SIDE, "rings": [
            {"id": 0, "switches": [[0, 0], [1, 0], [1, 1], [0, 1]]}]}
        with pytest.raises(TopologyError, match=r"^core \(2, 0\) is on no ring$"):
            load_topology(doc)

    @pytest.mark.parametrize("width,height", [(MAX_GRID_SIDE + 1, 2), (2, 1000)])
    def test_side_over_the_limit_is_rejected_before_the_rings(self, width, height):
        doc = {"width": width, "height": height, "rings": "not read"}
        with pytest.raises(TopologyError, match="exceeds the side limit of 16"):
            load_topology(doc)
        with pytest.raises(TopologyError, match="exceeds the side limit"):
            generate_multi_ring(width, height)
        with pytest.raises(TopologyError, match="exceeds the side limit"):
            Topology(width, height, generate_multi_ring(2, 2).rings)

    def test_unknown_fields_rejected(self):
        doc = {"width": 2, "height": 2, "rings": [
            {"id": 0, "switches": [[0, 0], [1, 0], [1, 1], [0, 1]]}], "colour": 1}
        with pytest.raises(TopologyError, match=r"^unknown topology fields: \['colour'\]$"):
            load_topology(doc)
        doc = {"width": 2, "height": 2, "rings": [
            {"id": 0, "switches": [[0, 0], [1, 0], [1, 1], [0, 1]], "speed": 2}]}
        with pytest.raises(TopologyError, match=r"^unknown ring fields: \['speed'\]$"):
            load_topology(doc)

    def test_out_of_grid_switch_rejected(self):
        doc = {"width": 2, "height": 2, "rings": [
            {"id": 0, "switches": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            {"id": 1, "switches": [[0, 0], [0, 1], [0, 2], [0, 1]]}]}
        with pytest.raises(TopologyError, match=r"^ring 1 switch \(0, 2\) is outside the grid$"):
            load_topology(doc)

    def test_roundtrip(self, tmp_path, ten_ring_fixture):
        out = tmp_path / "topo.json"
        out.write_text(json.dumps(topology_to_doc(ten_ring_fixture), indent=2))
        again = load_topology_file(str(out))
        assert again.rings == ten_ring_fixture.rings
        assert topology_to_doc(again) == topology_to_doc(ten_ring_fixture)


class TestRingInvariants:
    def test_duplicate_ring_id_rejected(self):
        ring = Ring(0, (Coord(0, 0), Coord(1, 0), Coord(1, 1), Coord(0, 1)))
        with pytest.raises(TopologyError, match=r"^ring ids must be unique$"):
            Topology(2, 2, (ring, Ring(0, ring.switches)))

    def test_wrap_adjacency_checked(self):
        bad = Ring(0, (Coord(0, 0), Coord(1, 0), Coord(1, 1)))
        with pytest.raises(TopologyError,
                           match=r"^ring 0: switches \(1, 1\) and \(0, 0\) are not neighbours$"):
            Topology(2, 2, (bad,))

    def test_constructor_rejects_non_neighbours(self):
        ring = Ring(0, (Coord(0, 0), Coord(2, 0), Coord(2, 1)))
        with pytest.raises(TopologyError,
                           match=r"^ring 0: switches \(0, 0\) and \(2, 0\) are not neighbours$"):
            Topology(3, 2, (ring,))

    def test_buffer_capacity_must_be_positive(self):
        ring = Ring(0, (Coord(0, 0), Coord(1, 0), Coord(1, 1), Coord(0, 1)),
                    buffer_capacity=0)
        with pytest.raises(TopologyError,
                           match=r"^ring 0: buffer_capacity must be an integer >= 1, got 0$"):
            Topology(2, 2, (ring,))

    # Built in code, so no loader sees these fields: the constructor checks
    # each one, with the message a file's loader gives.
    SQUARE = (Coord(0, 0), Coord(1, 0), Coord(1, 1), Coord(0, 1))
    SIX = (Coord(0, 0), Coord(1, 0), Coord(2, 0), Coord(2, 1), Coord(1, 1), Coord(0, 1))

    @pytest.mark.parametrize("width,ring,message", [
        (2, Ring(0, tuple(tuple(c) for c in SQUARE)),
         r"^ring 0: switch entries must be \[col, row\] Coords of integers, got \(0, 0\)$"),
        (2, Ring(True, SQUARE), r"^ring is missing an integer 'id'$"),
        (2, Ring("0", SQUARE), r"^ring is missing an integer 'id'$"),
        (2, Ring(0, SQUARE, buffer_capacity=4.0),
         r"^ring 0: buffer_capacity must be an integer >= 1, got 4\.0$"),
        (2, Ring(0, SQUARE, buffer_capacity=True),
         r"^ring 0: buffer_capacity must be an integer >= 1, got True$"),
        (2.0, Ring(0, SQUARE), r"^missing or non-integer field 'width'$"),
        # At the six-switch ring this capacity once gave a coarse bound of 133.5.
        (3, Ring(0, SIX, buffer_capacity=40.5),
         r"^ring 0: buffer_capacity must be an integer >= 1, got 40\.5$"),
        (2, Ring(0, SQUARE[:1]), r"^ring 0 has fewer than 2 switches$"),
    ], ids=["tuple_switches", "bool_id", "str_id", "float_buffer_capacity",
            "bool_buffer_capacity", "float_width", "fractional_buffer_capacity",
            "one_switch"])
    def test_fields_built_in_code_are_type_checked(self, width, ring, message):
        with pytest.raises(TopologyError, match=message):
            Topology(width, 2, (ring,))


def test_replace_rechecks_and_rederives():
    topo = generate_multi_ring(4, 4)
    with pytest.raises(TopologyError, match=r"^core \(1, 1\) is on no ring$"):
        replace(topo, rings=topo.rings[:1])
    topo = generate_multi_ring(3, 3)
    reversed_rings = tuple(replace(ring, switches=ring.switches[::-1]) for ring in topo.rings)
    again = replace(topo, rings=reversed_rings)

    def routes(topology):
        return [select_ring(topology, a, b) for a, b in all_pairs(topology)]

    assert routes(again) == routes(Topology(3, 3, reversed_rings))
    assert routes(again) != routes(topo)


def test_generated_dimensions_grid(six_ring_topology):
    # The bundled six-switch ring spans the full 3x2 grid in ring order.
    ring = six_ring_topology.rings[0]
    assert ring.size == 6
    assert set(ring.switches) == {Coord(c, r) for r in range(2) for c in range(3)}
