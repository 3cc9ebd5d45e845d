"""Fingerprints of whole trees, node by node, pinned across changes to the builder.

Each fingerprint hashes, for every node in ``walk_nodes`` order, its id,
``tuple(node.region)``, seats, small and large district counts and the child
ids of each sample, followed by the build's diagnostics.  The region goes in
as a tuple, not a set, so the order a region iterates its blocks in is pinned
too: leaf scoring sums floats in that order.
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
        h.update(repr((n.node_id, tuple(n.region), n.seats, n.n_small, n.n_large,
                       [[c.node_id for c in sample] for sample in n.samples])).encode())
    h.update(repr(sorted(tree.diagnostics.items())).encode())
    return h.hexdigest()[:16]


#: (state, k, seed, root samples, internal samples) -> fingerprint
FINGERPRINTS = {
    ("state144.json", 2, 0, 30, 6): "4e9663019a9bf2c7",
    ("state144.json", 2, 1, 30, 6): "25364c131c2bff75",
    ("state144.json", 2, 2, 30, 6): "7687f7e31635f7d5",
    ("state144.json", 3, 0, 30, 6): "c0abd430bc91067d",
    ("state144.json", 3, 1, 30, 6): "21a165631258f36d",
    ("state144.json", 3, 2, 30, 6): "95bbc55832cf6001",
    ("state144.json", 4, 0, 30, 6): "8b837b61c0208697",
    ("state144.json", 4, 1, 30, 6): "f134165068ea32f6",
    ("state144.json", 4, 2, 30, 6): "ffca40aadf93df98",
    ("state144.json", 5, 0, 30, 6): "480567d537853bcf",
    ("state144.json", 5, 1, 30, 6): "f8e9fae09b2e9e9f",
    ("state144.json", 5, 2, 30, 6): "39b8f8e00f2bf70c",
    ("state144.json", 6, 0, 30, 6): "60892b69fc36fbb1",
    ("state144.json", 6, 1, 30, 6): "9f3be0757d5a57f2",
    ("state144.json", 6, 2, 30, 6): "b5bb0e7ec2053210",
    ("state72.json", 2, 4, 30, 6): "de6a7d5b00583265",
    ("state72.json", 3, 4, 30, 6): "64e122a2cbbb8758",
    ("state72.json", 4, 4, 30, 6): "df70044e4e65e5c2",
    ("state72.json", 5, 4, 30, 6): "db99b76f219141b5",
    ("state72.json", 6, 4, 30, 6): "55ab6f8e9d12a0cd",
    ("synth1600", 6, 7, 5, 2): "f67ea6d26f26d206",
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
