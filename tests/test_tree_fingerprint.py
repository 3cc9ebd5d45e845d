"""Fingerprints of whole trees, node by node, pinned across changes to the builder.

Each fingerprint hashes, for every node in ``walk_nodes`` order, its id,
``tuple(sorted(node.region))``, seats, small and large district counts and
the child ids of each sample, followed by the build's diagnostics.  A region
goes in as its sorted blocks, so a pin does not depend on the order a region
stores them in; vote shares are summed in ascending id order whatever it is.
"""
import hashlib
from pathlib import Path

import pytest

from mmdistrict.model import generate_synthetic_state, load_state
from mmdistrict.tree import build_tree, walk_nodes

GOLDEN = Path(__file__).parent / "golden"


def tree_fingerprint(tree):
    h = hashlib.sha256()
    for n in walk_nodes(tree):
        h.update(repr((n.node_id, tuple(sorted(n.region)), n.seats, n.n_small, n.n_large,
                       [[c.node_id for c in sample] for sample in n.samples])).encode())
    h.update(repr(sorted(tree.diagnostics.items())).encode())
    return h.hexdigest()[:16]


#: (state, k, seed, root samples, internal samples) -> fingerprint
FINGERPRINTS = {
    ("state144.json", 2, 0, 30, 6): "4e9663019a9bf2c7",
    ("state144.json", 2, 1, 30, 6): "25364c131c2bff75",
    ("state144.json", 2, 2, 30, 6): "7687f7e31635f7d5",
    ("state144.json", 3, 0, 30, 6): "4f0a1c607bb68c4c",
    ("state144.json", 3, 1, 30, 6): "9e0665e0ae24cd07",
    ("state144.json", 3, 2, 30, 6): "28b14f646d211d6e",
    ("state144.json", 4, 0, 30, 6): "fdb8dbae4aea98d8",
    ("state144.json", 4, 1, 30, 6): "0bceabc0b818c6e5",
    ("state144.json", 4, 2, 30, 6): "5b4cc556cdde7351",
    ("state144.json", 5, 0, 30, 6): "a1f454b335777c88",
    ("state144.json", 5, 1, 30, 6): "de50493c7034f36f",
    ("state144.json", 5, 2, 30, 6): "9424a83bb0d0f581",
    ("state144.json", 6, 0, 30, 6): "e0f83a57f66cc4ea",
    ("state144.json", 6, 1, 30, 6): "5ed6d34d94ac176b",
    ("state144.json", 6, 2, 30, 6): "abc4588836b20a25",
    ("state72.json", 2, 4, 30, 6): "de6a7d5b00583265",
    ("state72.json", 3, 4, 30, 6): "2592a60a166a2270",
    ("state72.json", 4, 4, 30, 6): "513051811d2f7cd8",
    ("state72.json", 5, 4, 30, 6): "7b1e915527172532",
    ("state72.json", 6, 4, 30, 6): "ca96b4d76afdd0d9",
    ("synth1600", 6, 7, 5, 2): "ce1551b8711527ec",
}

_STATES = {}


def _state(name):
    if name not in _STATES:
        _STATES[name] = (generate_synthetic_state(1600, 6, 0.4, 2, seed=11)
                         if name == "synth1600" else load_state(GOLDEN / name))
    return _STATES[name]


@pytest.mark.parametrize("case", sorted(FINGERPRINTS), ids=lambda c: "-".join(map(str, c)))
def test_tree_matches_its_fingerprint(case):
    name, k, seed, root_samples, internal_samples = case
    tree = build_tree(_state(name), k, seed=seed, root_samples=root_samples,
                      internal_samples=internal_samples)
    assert tree_fingerprint(tree) == FINGERPRINTS[case]


if __name__ == "__main__":
    for case in sorted(FINGERPRINTS):
        name, k, seed, root_samples, internal_samples = case
        tree = build_tree(_state(name), k, seed=seed, root_samples=root_samples,
                          internal_samples=internal_samples)
        print(f"    {case!r}: {tree_fingerprint(tree)!r},")
