"""Golden outputs: the digest of every transitive_scan and constructions
document of one benchmark block at seed 11.

The digest covers verdict, trace.csv and witness or periodic-point
entries at 15 significant digits, and norms at 10 (see
``perfbench.execute.Outcome.digest``).  A change that is meant to leave
results alone must leave these strings alone.  Chaos documents are left
out: their ``series_*`` columns are expected to change with the tail
certificate.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import execute, scenarios  # noqa: E402

GOLDEN = {
    ("transitive_scan", "heis_transitive"):
        "535177a05eb67a1ff191db6b3b2f26149a9a883223d7e2f26171be9ce75df34e",
    ("transitive_scan", "lattice_same_weight"):
        "37e1efbb170565c51c443ca7ad25664852ed03fafb0730ccaad2c4ff17a55449",
    ("transitive_scan", "heis_mixing"):
        "0a83f499db8c75c503c7f61acb35ce7b3900baf1159572422068e0c469c6241d",
    ("transitive_scan", "heis_slow_decay"):
        "111a1132ce55a3def65abedc16c9d3bef9b087aca16473f5ecdbc27aa419217b",
    ("transitive_scan", "lattice_flat_weight"):
        "462cfd48eba60b7ce86416bc3b12c741257c9691ea754f7f0de72642a4d8eca8",
    ("transitive_scan", "heis_lattice_deficit"):
        "d3c2e981d5bdbee35aaf67627feae7dd8d87d20dd3a52a7c9dbd7c1a6a7021c6",
    ("constructions", "periodic_short_tail"):
        "aae7adc606dc445de38b8a27aecda471c9e7ab57711fc18293acfe600f6299c0",
    ("constructions", "witness_constant"):
        "d2ab4323df5300b2c17bbf7054bb30d2582ad0600b64a7911de987e633d85d50",
    ("constructions", "periodic_heis"):
        "13544bce9c9fd819f31637247d864bf37278b183fdbcb5ce9afa5a831dc9efea",
    ("constructions", "periodic_plane_powerlog"):
        "822f45527dafb6df5a3be542e98eccfca01bcca8f277c74531c3e0226092e77e",
    ("constructions", "periodic_lattice_custom"):
        "f51dc98e869c8dc79bf38f989ebd578775c0a78554c7784401ef81b4b17f2e27",
    ("constructions", "witness_heis"):
        "1b2c65e36206d3e084174818e65ed4f8aa14700c086fc30d97e2636596054d6a",
}


@pytest.mark.parametrize("workload", ["transitive_scan", "constructions"])
def test_block_digests(workload):
    docs = scenarios.generate(workload, 11, 1)
    got = {(workload, label): execute.run_library(doc).digest() for label, doc in docs}
    assert got == {k: v for k, v in GOLDEN.items() if k[0] == workload}
