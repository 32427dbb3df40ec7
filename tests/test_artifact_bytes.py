"""Byte identity of the CLI artifacts.

Every default subcommand and the benchmark's three sized INI runs, at
``--seed 0`` and ``--seed 5``, run through ``cli.main`` and are compared
against committed digests: the SHA-256 of the CSV, its byte length and the
SHA-256 of the stdout line.  A change that moves bytes on purpose updates
the digests here in the same commit and names the moved artifacts in
CHANGES.md.
"""

import hashlib

import pytest

from nlops.cli import main

#: The sized INI runs of ``perfbench/workloads.py`` (``_sized_configs`` at
#: full size), copied as data so that the suite does not import perfbench.
SIZED = {
    "localize": (
        "[run]\nn_grid = 64\n"
        "[operator]\npreset = gradient\nn = 2\n"
        "[weight]\npreset = bump\n"
        "[field]\nkind = random\nnum_terms = 6\nmax_degree = 3\n"
    ),
    "kernel-check": "[operator]\npreset = curl\nn = 3\n[kernel]\nmax_degree = 8\n",
    "multiplier": "[weight]\npreset = gaussian\n[multiplier]\nxi_count = 101\n",
}

#: (subcommand, sized, seed) -> (CSV SHA-256, CSV bytes, stdout SHA-256).
DIGESTS = {
    ("bessel", False, 0): (
        "aa7cd890be0d712569fabc22ff188254ad5b5ef1233683a24b74d75715b4f13b",
        232166,
        "693e2a6278a67e581170886db623c536fe2173c722e8c3986a6f744bea31c763",
    ),
    ("zeros", False, 0): (
        "771feef9d41ec035c57d089f2f08a0708f32848cbd6d6f95a9dce78c47236a45",
        339,
        "9b0eece138a7bf2206fd8dab9bb9fee6372f5959b6779d151220e7aa8cbb0b01",
    ),
    ("multiplier", False, 0): (
        "549fef34c7afb5cd0890ed1d2eb7d7cd6fd9aeae3727cecc74f94ebf49194b6c",
        3722,
        "cb7c07f40e499440401eecd4213ad93abada63b298dd6876fe57b0bbd99e2aeb",
    ),
    ("localize", False, 0): (
        "470bef608a41e490a6a62b115e75c84d58dea8137d07081baaf540c96e3e0fda",
        296,
        "05b04d46c2f9141a6dbaf034cd53cc8d049b4ee246e3fd37a7611fdc17990f76",
    ),
    ("kernel-check", False, 0): (
        "25e74e58c251d04e6717087e9243d0bbbbf0a41c1f8b337dbbad8fce97e3e12b",
        777,
        "475aa84b649898fdda179513d8688c608566126e62c7289fe3ede1ea87b889e0",
    ),
    ("witness", False, 0): (
        "b1ebc28777ad00199171ec6e987344fcfe0e73941aff9f220e683cd87bb3e63c",
        276,
        "1ed450871674931c361cf23e0b7d56d849df1d9c0f2630d54f57b185a2b59905",
    ),
    ("counterexample-linf", False, 0): (
        "23ad86e3decf919ea9dfa82f16fd5c89f0d66f963d9436ad8832fe24dd910ef8",
        313,
        "e65f7fca39382add0c6d06d7ab7d99c7772b08384e89b1ee09f593c2c833b3d0",
    ),
    ("gauss-green", False, 0): (
        "864c5ab47f13f370f25d62e902dbcca85bc0d342f7963b2699b4f11bc444ee00",
        15494,
        "0fee00f123e14f11e231ae43ac1f603eea53b44fdfb0ba597a2a98594ed012ce",
    ),
    ("area", False, 0): (
        "691fa15e701015648f9ca4e15af5d407f3f8ca40124eeef5dc64c32a9af8dc1d",
        255,
        "115658e7620a9e7841770d3ca9b351af83f1d049f857c435234132c18a25bc05",
    ),
    ("atomic-demo", False, 0): (
        "61c203bd79f3182de29c09c813ccc40586aa91ec4520405535981234eebb5029",
        765,
        "0ee0b39d81673537fe127a53818bf4725a105410a793fe8d56bca044fdd58e85",
    ),
    ("localize", True, 0): (
        "61466957533493e50fa3517b01fa9bb47a0fcdbd2b1d98d33e1b4aa61be68377",
        487,
        "249efb793b0aa44a83bcd1ef306fc8f0cf2d20695a0a46f0e3c3b788d5bfac87",
    ),
    ("kernel-check", True, 0): (
        "3405d64e228d97ebde195e3c0d8d2fec70a4ae361239e856e4ac1ea4211b2254",
        426995,
        "28c37d9cef4b4579f17dae0c1a7323352ea2afb6d0a518e9167bac3f70b9d093",
    ),
    ("multiplier", True, 0): (
        "71cf2789b25a18ad8cd013b9650b7f931900231d413747574a050cd630c562e3",
        7212,
        "cb7c07f40e499440401eecd4213ad93abada63b298dd6876fe57b0bbd99e2aeb",
    ),
    ("bessel", False, 5): (
        "aa7cd890be0d712569fabc22ff188254ad5b5ef1233683a24b74d75715b4f13b",
        232166,
        "693e2a6278a67e581170886db623c536fe2173c722e8c3986a6f744bea31c763",
    ),
    ("zeros", False, 5): (
        "771feef9d41ec035c57d089f2f08a0708f32848cbd6d6f95a9dce78c47236a45",
        339,
        "9b0eece138a7bf2206fd8dab9bb9fee6372f5959b6779d151220e7aa8cbb0b01",
    ),
    ("multiplier", False, 5): (
        "549fef34c7afb5cd0890ed1d2eb7d7cd6fd9aeae3727cecc74f94ebf49194b6c",
        3722,
        "cb7c07f40e499440401eecd4213ad93abada63b298dd6876fe57b0bbd99e2aeb",
    ),
    ("localize", False, 5): (
        "470bef608a41e490a6a62b115e75c84d58dea8137d07081baaf540c96e3e0fda",
        296,
        "05b04d46c2f9141a6dbaf034cd53cc8d049b4ee246e3fd37a7611fdc17990f76",
    ),
    ("kernel-check", False, 5): (
        "25e74e58c251d04e6717087e9243d0bbbbf0a41c1f8b337dbbad8fce97e3e12b",
        777,
        "475aa84b649898fdda179513d8688c608566126e62c7289fe3ede1ea87b889e0",
    ),
    ("witness", False, 5): (
        "b1ebc28777ad00199171ec6e987344fcfe0e73941aff9f220e683cd87bb3e63c",
        276,
        "1ed450871674931c361cf23e0b7d56d849df1d9c0f2630d54f57b185a2b59905",
    ),
    ("counterexample-linf", False, 5): (
        "23ad86e3decf919ea9dfa82f16fd5c89f0d66f963d9436ad8832fe24dd910ef8",
        313,
        "e65f7fca39382add0c6d06d7ab7d99c7772b08384e89b1ee09f593c2c833b3d0",
    ),
    ("gauss-green", False, 5): (
        "558b8476697f01316c464aedeba0b5cdc1221271a5e97fb5d5a2dbd589a5aafa",
        15505,
        "d7f82a3ed6a56d3f2170caf937a5d04b56caf6aa86d24555d2b794e722edd604",
    ),
    ("area", False, 5): (
        "691fa15e701015648f9ca4e15af5d407f3f8ca40124eeef5dc64c32a9af8dc1d",
        255,
        "115658e7620a9e7841770d3ca9b351af83f1d049f857c435234132c18a25bc05",
    ),
    ("atomic-demo", False, 5): (
        "61c203bd79f3182de29c09c813ccc40586aa91ec4520405535981234eebb5029",
        765,
        "0ee0b39d81673537fe127a53818bf4725a105410a793fe8d56bca044fdd58e85",
    ),
    ("localize", True, 5): (
        "b22fd0d284c16ddb4f3b9482905bcd2eddd3c5fe61ea5e5e0599aea1f042273e",
        487,
        "4aadab0ad0e88592900ef6e6cda3245dca01f1ec0e990927f9096739b162b51b",
    ),
    ("kernel-check", True, 5): (
        "3405d64e228d97ebde195e3c0d8d2fec70a4ae361239e856e4ac1ea4211b2254",
        426995,
        "28c37d9cef4b4579f17dae0c1a7323352ea2afb6d0a518e9167bac3f70b9d093",
    ),
    ("multiplier", True, 5): (
        "71cf2789b25a18ad8cd013b9650b7f931900231d413747574a050cd630c562e3",
        7212,
        "cb7c07f40e499440401eecd4213ad93abada63b298dd6876fe57b0bbd99e2aeb",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", DIGESTS, ids=lambda c: f"{c[0]}{'-sized' if c[1] else ''}-seed{c[2]}")
def test_artifact_bytes_match_their_digests(case, tmp_path, capsys):
    name, sized, seed = case
    argv = [name, "--seed", str(seed), "--out", str(tmp_path / "out")]
    if sized:
        ini = tmp_path / f"{name}.ini"
        ini.write_text(SIZED[name])
        argv += ["--config", str(ini)]
    assert main(argv) == 0
    artifact = f"{name.replace('-', '_')}.csv"
    csv = (tmp_path / "out" / artifact).read_bytes()
    got = (sha256(csv), len(csv), sha256(capsys.readouterr().out.encode()))
    label = f"{artifact} ({'sized INI' if sized else 'defaults'}, --seed {seed})"
    assert got[:2] == DIGESTS[case][:2], f"{label}: CSV bytes moved"
    assert got[2] == DIGESTS[case][2], f"{label}: stdout line moved"
