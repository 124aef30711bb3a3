"""Every output of ``scripts/output_digests.py`` keeps its pinned bytes.

The script runs the CLI on exact, linalg, wl1, global, normalized, sampled
and adaptive configurations of the bundled MUTAG and of three copies made
from it, and prints each output's SHA-256 plus the sample and round counts
of the sampled runs.  A change to any of these lines is a change to the
program's outputs, and belongs in CHANGES.md with its reason.
"""

from conftest import scripts

# (SHA-256 or count, name) of every line the script prints
PINNED = [
    ("190ce76eafbce48d2657e63944a874e93b2b9ae5614344d7761dd7178c0daabf",
     "k3-exact.gram"),
    ("cf3528e7f8af2757c59ae06a25ce4eade27a24ad928d0c6bc5666cd8dd3ef387",
     "k3-exact.features"),
    ("c48bc45438ae9b292f43d5fabaabb95d0964d38c3f1f6870f8592952f0d76234",
     "k2-linalg.gram"),
    ("190ce76eafbce48d2657e63944a874e93b2b9ae5614344d7761dd7178c0daabf",
     "k3-linalg.gram"),
    ("417fe5db360ba127cf68f8feb01c70003b082969a578d2d67ec150fe7962cfc8",
     "wl1-h5.gram"),
    ("82737ff9f37903ad260838aaef8197c0609665e7230d50912e1e0d85a1126c36",
     "wl1-h5.features"),
    ("417fe5db360ba127cf68f8feb01c70003b082969a578d2d67ec150fe7962cfc8",
     "wl1-h5-linalg.gram"),
    ("6afcd175da172cce603abde7ee73a9c0df8f44f78806daef8b11a341b5ec75c2",
     "wl1-h5-unlabeled.features"),
    ("13ca91ec385ae75d90a6fe642f965a367c8226f27865b1869471cb6bc9462670",
     "k2-global.gram"),
    ("13ca91ec385ae75d90a6fe642f965a367c8226f27865b1869471cb6bc9462670",
     "k2-global-linalg.gram"),
    ("b277f63bfbc4b16bbdb9dec29dead0eb7f990b66dfc3f6b525ee3c60e3272273",
     "k3-global.gram"),
    ("b277f63bfbc4b16bbdb9dec29dead0eb7f990b66dfc3f6b525ee3c60e3272273",
     "k3-global-linalg.gram"),
    ("9bd951c969d9cf427d4ec59f28b8c9300438b135011fe1b52a7c4b07ce088b23",
     "k2-exact.features"),
    ("7c95c7ddb6a8018ed549310092016b835bcac56ca6a1d332a8c1d65574cb8d6d",
     "k2-l1-block.gram"),
    ("ae29568f7795d820da229b377d0c8af39fc440a8d5478ed7a4d04aee37a363c9",
     "subset-adaptive-seed5.gram"),
    ("76000", "subset-adaptive-seed5.gram.samples"),
    ("7", "subset-adaptive-seed5.gram.rounds"),
    ("703bdae7f54c1f2668e3b801e840aff437f7773d743c52e4cc0ba84fbce0f700",
     "subset-adaptive-seed5.gram.round-log"),
    ("0144d71a0a81b714368ee650d4ebc1e26f338cc55f94d760478ebcb9cd2d4912",
     "k2-sampled-seed9.gram"),
    ("56400", "k2-sampled-seed9.gram.samples"),
    ("e000337ba7d9d16a6a06fe57973de0173e3516f8c14693a105da1a4cc8ce4627",
     "k2-sampled-seed9-l1-block.features"),
    ("56400", "k2-sampled-seed9-l1-block.features.samples"),
    ("f624fa5b3eca33676a3893ec3c68a7d0dc105a3320bcd91aa9e14dd0c0c091c9",
     "k2-sampled-seed9-l1-full.gram"),
    ("56400", "k2-sampled-seed9-l1-full.gram.samples"),
    ("b57262a693bc01f6d785955fc303012f936a2ce7002dab97d4380febdf8a11ce",
     "k3-sampled-seed9.gram"),
    ("56400", "k3-sampled-seed9.gram.samples"),
    ("9bd951c969d9cf427d4ec59f28b8c9300438b135011fe1b52a7c4b07ce088b23",
     "k2-exact-messy.features"),
    ("417e654fe1ad54d2c2aaeab8908a8711b845c5091af9da16f3eec5e63a850c5b",
     "k3-linalg.features"),
    ("a057ec3a3e4d895a30b278625c752dabbdd60567a2f8839222db0047c159c65a",
     "k3-global-linalg.features"),
    ("8829ee984f00c30ca50c970dd6a9a2a8e02bb4dcf4b8e3aed0c3c57c2ba5ec68",
     "wl1-h5-linalg.features"),
]


def test_standard_outputs_keep_their_digests(capsys):
    assert scripts("output_digests").main_digests() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [tuple(line.split("  ")) for line in lines] == PINNED
