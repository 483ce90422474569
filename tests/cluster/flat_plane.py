"""The flat cluster control plane in tests: one replay helper and the
frozen output of the retired flat driver.

The flat plane - one ``ClusterController`` leasing watts to ``n``
``NodeAgent``\\ s over one network - is the one-level budget tree, and
:func:`flat_run` replays it through :func:`~repro.hierarchy.run_budget_tree`.

It used to have its own replay loop as well. Before that loop was deleted
it replayed the cases in :data:`FLAT_ORACLE`, and what it produced is
recorded there: sha256 digests of the per-step caps, the final per-node
epochs and the network accounting, the controller's final epoch, and the
``TraceBus.content_hash()`` of the run. A one-level tree must reproduce
every entry bit for bit.

The ``cluster_*`` cases are the two lossy ``ClusterSimulator`` runs of
``tests/cluster/test_partition_chaos.py``; their ``trace`` is the hash of
the whole cluster run's trace, control-plane events included.
"""

import hashlib
import json

from repro.hierarchy import TreeSpec, run_budget_tree


def flat_run(n_nodes, budget_w, loaded_counts, *, quantum_w=2.0, **kwargs):
    """Replay the flat plane over ``n_nodes`` servers (a depth-1 tree)."""
    spec = TreeSpec(fanouts=(n_nodes,), budget_w=budget_w, quantum_w=quantum_w)
    return run_budget_tree(spec, loaded_counts, **kwargs)


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def flat_digest(outcome) -> dict:
    """The oracle fields of a depth-1 :class:`~repro.hierarchy.HierarchyOutcome`."""
    return {
        "caps_w": sha256_json([list(row) for row in outcome.caps_w]),
        "leaf_epochs": sha256_json(list(outcome.leaf_epochs)),
        "final_epoch": outcome.final_epochs["root"],
        "net_stats": sha256_json(outcome.net_stats),
        "max_total_cap_w": outcome.max_total_cap_w,
        "zombie_free": outcome.zombie_free,
    }


FLAT_ORACLE = {
    "clean8": {
        "caps_w": "7cb821195e6a20382412c3c0dc09730b50b4d19176012f3d4e3ea51bc8dafe65",
        "leaf_epochs": "2252462b8dfd65f99a517b65a9ba187da1fce2ccc33e7b6e11dd5cea18e9a973",
        "final_epoch": 137,
        "net_stats": "f6ac9343342378d88b97456c155fcc32395a7b1ca4038275797fdb0673383b1e",
        "max_total_cap_w": 800.0,
        "zombie_free": True,
        "trace": "75b6d121f0a34bdbb59f84e35db4abaaf9b7d52061b4f6a761c4616d879699d2",
    },
    "lossy8": {
        "caps_w": "f9c74aa92193eadb1d11e93b9bc70fd43132e2a8a339b8011fabaee1c23b118d",
        "leaf_epochs": "6af512a08f8b3fb62b1ecb741fa6c4622526cc96bb93d60b8a64063f9773cc63",
        "final_epoch": 164,
        "net_stats": "1cce5566bc834a20dc58cd020f62cba2c4820daab12a3b24d1f63b10295fc729",
        "max_total_cap_w": 800.0,
        "zombie_free": True,
        "trace": "ec3e24125befe1f2b72334b7e3a50e0eb41da8905114ff58cc567a6383c13479",
    },
    "lossy6": {
        "caps_w": "15f0ec0907652be299c73379e62fd74052faf6507efa26e8d1fe4d28b1c29094",
        "leaf_epochs": "8c0ff60f6e83b33cc51dc0a379754e39e9e7a678dadf94cb516695407b15a4e7",
        "final_epoch": 42,
        "net_stats": "f39edb94ec4068d34ddaa49761d8882aeaf218047da41e9ed78cc267c0e6d657",
        "max_total_cap_w": 600.0,
        "zombie_free": True,
        "trace": "1925ff5bb1c16533346224816267203308bfc15baf1f774704b8794536a18808",
    },
    "down4": {
        "caps_w": "c9c0a12c8490c1e0f87af53a614ce901729a30112c725d9e1ce2f40596a13dac",
        "leaf_epochs": "6453ae4aa4a85a372d37358e7ce5a85f861e4b22c13748ed1096593ee1eeac66",
        "final_epoch": 42,
        "net_stats": "9d3dc3e4bcc8473580753bae97f80049973f1d31a7ea57b6f473d6ed197dffcc",
        "max_total_cap_w": 400.0,
        "zombie_free": True,
        "trace": "ab713397dc024084c86677755fb38908c149c434a7ec9f6f3b21935856bd54cd",
    },
    "cluster_partitioned": {
        "caps_w": "38f6a7fc5c251a5f7c9e1c642ffb34c18ae14234029d6a015ea1256e5dae2307",
        "leaf_epochs": "92bee292a464c414d3583e0503115815629e64905721c422fcf769b4d31c6f0f",
        "final_epoch": 15,
        "net_stats": "31419f6457437baea4f3f99e7d3a87fb7dfacc1e4fc64a311c71d21525ca776d",
        "max_total_cap_w": 232.0,
        "zombie_free": True,
        "trace": "3dcd856fcc27c2e5c6da157c4604b311c7b8196851c13025e44e23ac4f930784",
    },
    "cluster_lossy": {
        "caps_w": "623d3f72543cd68b7a7f3c7739b998c9c08c10fece0bad23c9c83310d9e62f67",
        "leaf_epochs": "089c37d15faac685f0abc76b4f57b5020e59e592f61d98dae2f6b235dee92523",
        "final_epoch": 17,
        "net_stats": "d52b38b33d96c9e0cc968800e38d1efa4fb4868d30538b0bffad31dcfbb3d8f6",
        "max_total_cap_w": 232.0,
        "zombie_free": True,
        "trace": "119c318f9cc64f88732b475703ff4ca0c7405399ca3d691a7c9144f268c812a8",
    },
}


def assert_matches_flat_oracle(case: str, outcome, trace_hash: str) -> None:
    """``outcome`` and the run's trace hash equal the frozen ``case``."""
    expected = dict(FLAT_ORACLE[case])
    assert trace_hash == expected.pop("trace")
    assert flat_digest(outcome) == expected
