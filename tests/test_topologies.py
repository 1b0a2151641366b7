"""Unit tests for topology generators and the network builder."""

import hashlib

import pytest

from repro.exceptions import ConfigurationError
from repro.network.builder import NetworkConfig, build_network
from repro.network.node import NodeKind
from repro.network.registry import (
    TopologyKeyError,
    normalize_topology,
    quick_switch_count,
    topology_keys,
)
from repro.network.topology import (
    aiello_power_law_network,
    barabasi_albert_network,
    connect_components,
    erdos_renyi_network,
    grid_network,
    random_geometric_network,
    ring_network,
    watts_strogatz_network,
    waxman_network,
)
from repro.utils.rng import ensure_rng

GENERATORS = {
    "waxman": waxman_network,
    "watts_strogatz": watts_strogatz_network,
    "aiello": aiello_power_law_network,
    "erdos_renyi": erdos_renyi_network,
    "barabasi_albert": barabasi_albert_network,
    "random_geometric": random_geometric_network,
    "ring": ring_network,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
class TestRandomGenerators:
    def test_connected(self, name):
        net = GENERATORS[name](num_switches=40, rng=ensure_rng(1))
        assert net.is_connected()

    def test_node_counts(self, name):
        net = GENERATORS[name](num_switches=40, num_users=6, rng=ensure_rng(2))
        assert len(net.switches()) == 40
        assert len(net.users()) == 6

    def test_users_only_touch_switches(self, name):
        net = GENERATORS[name](num_switches=40, rng=ensure_rng(3))
        for user in net.users():
            for nbr in net.neighbors(user):
                assert net.node(nbr).is_switch

    def test_qubit_capacity_applied(self, name):
        net = GENERATORS[name](num_switches=30, qubit_capacity=7, rng=ensure_rng(4))
        for s in net.switches():
            assert net.qubit_capacity(s) == 7
        for u in net.users():
            assert net.qubit_capacity(u) is None

    def test_deterministic_with_seed(self, name):
        a = GENERATORS[name](num_switches=30, rng=ensure_rng(5))
        b = GENERATORS[name](num_switches=30, rng=ensure_rng(5))
        assert a.edge_keys() == b.edge_keys()

    def test_user_links_respected(self, name):
        net = GENERATORS[name](num_switches=30, user_links=3, rng=ensure_rng(6))
        for user in net.users():
            assert net.degree(user) == 3


class TestDegreeTargets:
    @pytest.mark.parametrize("target", [5.0, 10.0, 15.0])
    def test_waxman_average_degree(self, target):
        net = waxman_network(
            num_switches=100, average_degree=target, rng=ensure_rng(7)
        )
        measured = net.average_degree(NodeKind.SWITCH)
        assert measured == pytest.approx(target, rel=0.35)

    def test_erdos_renyi_average_degree(self):
        net = erdos_renyi_network(
            num_switches=100, average_degree=8.0, rng=ensure_rng(8)
        )
        assert net.average_degree(NodeKind.SWITCH) == pytest.approx(8.0, rel=0.35)

    def test_aiello_has_heavy_tail(self):
        net = aiello_power_law_network(
            num_switches=150, average_degree=8.0, rng=ensure_rng(9)
        )
        degrees = sorted(net.degree(s) for s in net.switches())
        # A scale-free sample should have hubs well above the mean.
        assert degrees[-1] > 2.5 * (sum(degrees) / len(degrees))


class TestRegularTopologies:
    def test_grid_structure(self):
        net = grid_network(side=4, num_users=2, rng=ensure_rng(10))
        assert len(net.switches()) == 16
        # Interior grid switches have degree 4 (plus possible user links).
        switch_degrees = [
            sum(1 for n in net.neighbors(s) if net.node(n).is_switch)
            for s in net.switches()
        ]
        assert max(switch_degrees) == 4
        assert min(switch_degrees) == 2

    def test_grid_rejects_tiny_side(self):
        with pytest.raises(ConfigurationError):
            grid_network(side=1)

    def test_ring_structure(self):
        net = ring_network(num_switches=8, num_users=2, rng=ensure_rng(11))
        for s in net.switches():
            switch_neighbors = [
                n for n in net.neighbors(s) if net.node(n).is_switch
            ]
            assert len(switch_neighbors) == 2

    def test_connect_components_repairs(self):
        net = ring_network(num_switches=6, num_users=2, rng=ensure_rng(12))
        switches = net.switches()
        net.remove_edge(switches[0], switches[1])
        net.remove_edge(switches[3], switches[4])
        if not net.is_connected():
            added = connect_components(net)
            assert added >= 1
        assert net.is_connected()


class TestBuilder:
    @pytest.mark.parametrize(
        "generator",
        [
            "waxman", "watts_strogatz", "aiello", "grid", "ring",
            "erdos_renyi", "barabasi_albert", "random_geometric",
        ],
    )
    def test_build_network_dispatch(self, generator):
        config = NetworkConfig(generator=generator, num_switches=25, num_users=4)
        net = build_network(config, ensure_rng(13))
        assert net.is_connected()
        assert len(net.users()) == 4

    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("watts", "watts_strogatz"),
            ("power_law", "aiello"),
            ("er", "erdos_renyi"),
            ("ba", "barabasi_albert"),
            ("rgg", "random_geometric"),
            ("Watts-Strogatz", "watts_strogatz"),
        ],
    )
    def test_aliases_build_the_canonical_family(self, alias, canonical):
        assert normalize_topology(alias) == canonical
        via_alias = build_network(
            NetworkConfig(generator=alias, num_switches=20, num_users=4),
            ensure_rng(21),
        )
        direct = build_network(
            NetworkConfig(generator=canonical, num_switches=20, num_users=4),
            ensure_rng(21),
        )
        assert via_alias.edge_keys() == direct.edge_keys()

    def test_unknown_generator(self):
        with pytest.raises(ConfigurationError):
            build_network(NetworkConfig(generator="mystery"), ensure_rng(0))

    def test_unknown_generator_is_value_error_naming_keys(self):
        with pytest.raises(ValueError) as err:
            build_network(NetworkConfig(generator="mystery"), ensure_rng(0))
        assert isinstance(err.value, TopologyKeyError)
        for key in topology_keys():
            assert key in str(err.value)

    def test_registered_keys_are_complete(self):
        assert set(topology_keys()) == {
            "waxman", "watts_strogatz", "aiello", "barabasi_albert",
            "random_geometric", "grid", "ring", "erdos_renyi",
        }

    def test_quick_switch_count_squares_grids_only(self):
        assert quick_switch_count("grid", 50) == 49
        assert quick_switch_count("grid", 30) == 25
        assert quick_switch_count("waxman", 50) == 50
        assert quick_switch_count("ring", 31) == 31

    def test_reregistering_a_key_or_alias_is_rejected(self):
        # Replacing a builder would silently poison warm result caches
        # (scenario fingerprints identify the topology by key alone).
        from repro.network.registry import register_topology

        def impostor(config, rng):  # pragma: no cover - never called
            raise AssertionError

        with pytest.raises(TopologyKeyError):
            register_topology("waxman")(impostor)
        with pytest.raises(TopologyKeyError):
            register_topology("my-family", aliases=("er",))(impostor)
        with pytest.raises(TopologyKeyError):
            register_topology("my-family", aliases=("waxman",))(impostor)
        # The failed registrations must not have leaked into the registry.
        assert "my-family" not in topology_keys()
        build_network(
            NetworkConfig(generator="waxman", num_switches=20, num_users=4),
            ensure_rng(3),
        )

    def test_with_updates(self):
        config = NetworkConfig().with_updates(num_switches=7)
        assert config.num_switches == 7
        assert NetworkConfig().num_switches == 100

    def test_invalid_degree_rejected(self):
        with pytest.raises(ConfigurationError):
            waxman_network(num_switches=10, average_degree=10.0, rng=ensure_rng(1))

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ConfigurationError):
            aiello_power_law_network(num_switches=10, gamma=0.5, rng=ensure_rng(1))

    def test_invalid_rewire_rejected(self):
        with pytest.raises(ConfigurationError):
            watts_strogatz_network(
                num_switches=10, rewire_probability=1.5, rng=ensure_rng(1)
            )


# ----------------------------------------------------------------------
# Digest pins: every registered family at 20 and 100 switches (grids
# snapped to their square), three seeds each, plus Waxman at 800.  Each
# entry is a sha256 prefix over the built network and the hex of the
# build rng's next ``random()`` draw, so a generator rewrite must keep
# every node, edge length, version bump and rng position bit-identical.

NETWORK_DIGESTS = {
    ("aiello", 20, 0): ("c7e1b55858c79f109bc6bd00cdc8dfc2", "0x1.7d1f7876de9ebp-1"),
    ("aiello", 20, 1): ("c89b0e6100d04ebee4aadddeccd5032c", "0x1.0eb3c7cfd224cp-3"),
    ("aiello", 20, 2): ("364175095e12cdf84b916308659705df", "0x1.652ca4d5eca00p-6"),
    ("aiello", 100, 0): ("1e5e4c519a651546a042fc41f4fb2c8c", "0x1.8e223ff5a6216p-2"),
    ("aiello", 100, 1): ("dd83aabb023a63816050665ab98c188e", "0x1.54ca9abdf5301p-1"),
    ("aiello", 100, 2): ("de2b9556293c5fce9ec7f9c828787435", "0x1.eedde5c9dd487p-1"),
    ("barabasi_albert", 20, 0): ("a6f1a8f9ad59a04275215514e01a01b5", "0x1.c560ff62a0dd4p-2"),
    ("barabasi_albert", 20, 1): ("d90ec29bb5c73b991f5d15f7d224a02e", "0x1.b993813ca3314p-2"),
    ("barabasi_albert", 20, 2): ("5b8a1821a70f5036cd26113cce6cf8dd", "0x1.8a93fa43ec4fep-1"),
    ("barabasi_albert", 100, 0): ("c02f52724a0984b7ab6a4febf7b381bc", "0x1.88d76dd06c5a0p-3"),
    ("barabasi_albert", 100, 1): ("824c11a1deb675866962208c8037f8ff", "0x1.c88afd40b7875p-1"),
    ("barabasi_albert", 100, 2): ("b3adf032751faf288f245c49959ac96b", "0x1.dd6cfb37f1696p-1"),
    ("erdos_renyi", 20, 0): ("3fff167d45ba0118d6e4f807bdebe570", "0x1.86fa742456754p-2"),
    ("erdos_renyi", 20, 1): ("7236154114f14eb90a9a34d3f4f66fc6", "0x1.36883a7c20939p-1"),
    ("erdos_renyi", 20, 2): ("38371efaa8259f9b1817fad4e39195db", "0x1.6eddd31d2ecd8p-3"),
    ("erdos_renyi", 100, 0): ("737540a4fcc45d2eeb51552213eed385", "0x1.7770a860af984p-2"),
    ("erdos_renyi", 100, 1): ("9c3638dc3987152d177280b814d2c292", "0x1.20b4dbe23d58cp-1"),
    ("erdos_renyi", 100, 2): ("269812a4d9001a8051ac31f600c8ef62", "0x1.9c8b21df6c6d7p-1"),
    ("grid", 20, 0): ("62ec98ae6064292913af0875e466c06c", "0x1.cffd4f59cea80p-6"),
    ("grid", 20, 1): ("2ff37f86d9e7398132d6668c8ffebf55", "0x1.802fcc620a262p-1"),
    ("grid", 20, 2): ("08b7741c92c07c8ec6479cb696c4fc42", "0x1.6243834154fa8p-2"),
    ("grid", 100, 0): ("2f7c0996c6b5146c5e1a53f2cf22de3f", "0x1.cffd4f59cea80p-6"),
    ("grid", 100, 1): ("220703a8836d0dfca138ce046013bf71", "0x1.802fcc620a262p-1"),
    ("grid", 100, 2): ("7f76801fbc0a9814c58a1ae0596acae5", "0x1.6243834154fa8p-2"),
    ("random_geometric", 20, 0): ("ab08e89deb464d3e16316ba496836782", "0x1.9e42d66647c6cp-2"),
    ("random_geometric", 20, 1): ("0ce4f2598361c0813b917f297001ed15", "0x1.18a0240a783cap-2"),
    ("random_geometric", 20, 2): ("0f5935e37a62381667ffc748226fecc3", "0x1.5fcca0afd90b0p-3"),
    ("random_geometric", 100, 0): ("9b7eefdecf2b054b7b01b2aeb0c0215a", "0x1.d4a55793d9b97p-1"),
    ("random_geometric", 100, 1): ("2b2baa6785747c1f326dd71095bafc52", "0x1.44b8806cb679cp-3"),
    ("random_geometric", 100, 2): ("5ed7b2b38651dff88aa49e68f86d6716", "0x1.bb0d2b0237688p-2"),
    ("ring", 20, 0): ("9f7fede4767a897e5e7b292d70816fdf", "0x1.cffd4f59cea80p-6"),
    ("ring", 20, 1): ("0e561f220efcbce126fc4356a12ab4f7", "0x1.802fcc620a262p-1"),
    ("ring", 20, 2): ("198655815419f56b3f4c75ddde29ca4d", "0x1.6243834154fa8p-2"),
    ("ring", 100, 0): ("f670c567b3f5b352848345144bf85846", "0x1.cffd4f59cea80p-6"),
    ("ring", 100, 1): ("eae3c77643c6cbbc19d7cbf5159d1150", "0x1.802fcc620a262p-1"),
    ("ring", 100, 2): ("58285637c7d59346f37bfbc5092579af", "0x1.6243834154fa8p-2"),
    ("watts_strogatz", 20, 0): ("d2ee84823fde0180002659ccaf854844", "0x1.eef3ad422e674p-3"),
    ("watts_strogatz", 20, 1): ("47e0c4bdfdb82f41ac23420f727144a5", "0x1.cb2866f1206b4p-2"),
    ("watts_strogatz", 20, 2): ("bd8ceb807461a500943adc6d9e9001b0", "0x1.a5e76365c657dp-1"),
    ("watts_strogatz", 100, 0): ("1bec370d7a5ab45cbcec5a8341778067", "0x1.3051de2ebb087p-1"),
    ("watts_strogatz", 100, 1): ("f07e230475d0a6c520ceb4bbe8647c06", "0x1.707047479b0d1p-1"),
    ("watts_strogatz", 100, 2): ("93248c45a0c9c23a3fb56e66112360d3", "0x1.9f69e87b33f20p-3"),
    ("waxman", 20, 0): ("83ec4b655cc16258a371e229a9012dfa", "0x1.86fa742456754p-2"),
    ("waxman", 20, 1): ("2803ac6270410516294b31412a006709", "0x1.36883a7c20939p-1"),
    ("waxman", 20, 2): ("8d017eebc7b8d2521e54e02c16b4a554", "0x1.6eddd31d2ecd8p-3"),
    ("waxman", 100, 0): ("9d6af580ca3a21af40e138c559a2ac81", "0x1.7770a860af984p-2"),
    ("waxman", 100, 1): ("5ca6f8e4da3bab9e67748b4ae1d96527", "0x1.20b4dbe23d58cp-1"),
    ("waxman", 100, 2): ("a5317e3d0be0b2aad84fc07209a1666f", "0x1.9c8b21df6c6d7p-1"),
    ("waxman", 800, 0): ("7577bf6f0428e0f7db680dc6b9d5bd2f", "0x1.25691577ace24p-1"),
}


def network_digest(net):
    """sha256 over node ids, kinds, capacities, exact positions, edge
    keys with exact lengths, and the topology version."""
    digest = hashlib.sha256()
    for nid in net.nodes():
        node = net.node(nid)
        digest.update(
            f"n {nid} {node.kind.value} {node.qubit_capacity} "
            f"{node.position.x.hex()} {node.position.y.hex()}\n".encode()
        )
    for edge in net.edges():
        digest.update(f"e {edge.u} {edge.v} {edge.length.hex()}\n".encode())
    digest.update(f"v {net.topology_version}\n".encode())
    return digest.hexdigest()


def test_generated_network_digests():
    expected_cases = {
        (key, n, seed)
        for key in topology_keys()
        for n in (20, 100)
        for seed in (0, 1, 2)
    } | {("waxman", 800, 0)}
    assert set(NETWORK_DIGESTS) == expected_cases
    mismatched = []
    for (key, n, seed), expected in sorted(NETWORK_DIGESTS.items()):
        rng = ensure_rng(seed)
        config = NetworkConfig(
            generator=key, num_switches=quick_switch_count(key, n)
        )
        net = build_network(config, rng)
        got = (network_digest(net)[:32], rng.random().hex())
        if got != expected:
            mismatched.append((key, n, seed))
    assert mismatched == []
