"""Golden outputs: the digest of every document of one benchmark block at
seed 11, for all three workloads.

The digest covers verdict, trace.csv and witness or periodic-point
entries at 15 significant digits, and norms at 10 (see
``perfbench.execute.Outcome.digest``).  A change that is meant to leave
results alone must leave these strings alone.  The chaos_batch block is
five calls of four documents; its digests are listed in document order
with their template names.
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

GOLDEN_CHAOS = [
    ("heis_clamp_pair",
     "6301b47f137abc43ee87238fcf1531f2553cc0ae5884802bd643dd0a9ac41f13"),
    ("heis_table",
     "996261fde1c4378f6e7e5a9361596a852a9a516ad584eb09569b29ff74f86a76"),
    ("heis_table_clamp",
     "693d8a4768d667b71492f5a53d4905beac24cba4c9e9377afa99445868de4616"),
    ("heis_table_clamp",
     "a9305b730242150a6a9a7cf3b0d0c714f5258c83d1424586a231c7f324e6622a"),
    ("heis_table",
     "eb0642eba803951ecde4f45a3615f05835587f933c5617b54cdab94ac399380c"),
    ("lattice_clamp_table",
     "87179ad302655b880375bd55840517f0deedeb56f36c9acaf14fda44790cac0e"),
    ("lattice_clamp_table",
     "11707072e64fbc8f7dd8d68d0f8e6c38a398eba0cc35d7e8c381cac9177de83f"),
    ("heis_table",
     "fdece091eec92067bae9e17d56fb728b2ae603720e8f0098c40c835f9428f548"),
    ("heis_lattice_clamp",
     "3e9d9570651bff1e0b8bf46d3dba4e63ba46d00d97c286af2cf30262c8588109"),
    ("heis_clamp_pair",
     "a007b99349b6aab8ea155218f972aebfbd9242f73cfe7166f6cfb9b817899024"),
    ("heis_lattice_clamp",
     "3e9d9570651bff1e0b8bf46d3dba4e63ba46d00d97c286af2cf30262c8588109"),
    ("lattice_clamp_table",
     "0c577b5053ae8c8622efdcdc9bb506e9b42e6f986d1d1ad11cb7b7392fd65cf5"),
    ("heis_table_clamp",
     "b874cb8190351244abf26b41624a30614d2bdd03e3464b8624788208f434ade0"),
    ("heis_lattice_clamp",
     "ccd5a6697371db1a861f29d0e0aa28ea737b1395a0c231197d346737d4013fb0"),
    ("heis_lattice_clamp",
     "b51c9becc3660b66c91db391103c3030ddfa788e7152248ee2e9dd1d642c4c2f"),
    ("heis_clamp_pair",
     "50c4cfc819e55d46a466cc59c72b26b9fd0ebc1985a0b4a76a6e9a11b2ca7844"),
    ("heis_clamp_pair",
     "282de61c2f0d18d4cee0985989db8b70823f425f8628d7b698493a3b33521c7f"),
    ("heis_table_clamp",
     "fb44c887a8d85d70a4de52e179f8b9c6fe0eab3cc1f3ac9220c3902bbe88a4fe"),
    ("lattice_clamp_table",
     "76955a5bd1ae05bfcc9b17f729c23aa2d67cbf259ccdf149dd1ec0b1ebf8a433"),
    ("heis_table",
     "62b5cd29a2a2d9db27d647d1bf018ea167751b26e0ae428fea5da310140b040b"),
]


@pytest.mark.parametrize("workload", ["transitive_scan", "constructions"])
def test_block_digests(workload):
    docs = scenarios.generate(workload, 11, 1)
    got = {(workload, label): execute.run_library(doc).digest() for label, doc in docs}
    assert got == {k: v for k, v in GOLDEN.items() if k[0] == workload}


def test_chaos_block_digests():
    got = [
        (name, execute.run_library(doc).digest())
        for label, docs in scenarios.generate("chaos_batch", 11, 1)
        for name, doc in zip(label.split("+"), docs)
    ]
    assert got == GOLDEN_CHAOS
