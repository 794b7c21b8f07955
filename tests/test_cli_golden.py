"""Pinned output bytes of a fixed CLI corpus.

Each command runs through ``main()`` with ``--out`` in a fresh directory
and must exit 0, print nothing, and write a file whose sha256 equals the
digest pinned here; ``STDOUT_COMMANDS`` print the report instead, and its
sha256 is pinned the same way. The input files come from the ``gen`` commands, whose
own outputs are pinned too. A change that alters any output byte fails
here; re-pin a digest only for an intended output change, and say why.
"""

import hashlib

import pytest

from graphboundary.cli import main

# input name -> gen arguments; grid, annulus and grid_d also write a coordinate sidecar
GEN = {
    "tree": ("--family", "tree", "--params", "200"),
    "star": ("--family", "star", "--params", "300"),
    "grid": ("--family", "grid", "--params", "6,6"),
    "k1": ("--family", "complete", "--params", "1"),
    "annulus": ("--family", "annulus", "--params", "0.4,1.0", "--lam", "0.2"),
    "grid_d": ("--family", "grid_d", "--params", "3,2,4"),
    "tree2": ("--family", "tree", "--params", "2"),
    # n >= 64 and low diameter: distance_matrix takes the bit-parallel route
    "grid8": ("--family", "grid", "--params", "8,8"),
    "cycle65": ("--family", "cycle", "--params", "65"),
}

FILE_DIGESTS = {
    "tree.el": "ef81a2bc1eab5812cd5e18a23aa8e8077300f43d7194c8a36da3a932e8a6fee4",
    "star.el": "2a50a1a6f9b726be590066e234b70ffc5b6afb2c532fdbcd230ae82600fd0a63",
    "grid.el": "387957d75c9a7632283d0731a884818a7516c3519871fe925c6279d50a486606",
    "grid.el.coords.json": "adee9cf217cd3f36be66c2fbe6176abffeccccc7a8771baa33d3df08311a981d",
    "k1.el": "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
    "annulus.el": "1c74e02a0e8ff06814edab5f9dab5531447affc5f97f6561b47a2b10d9ee6fab",
    "annulus.el.coords.json": "d6d07529e8a2f02c4dc6c4c6311ff87ff5d7b88e0f61bfefeea5a2061c61d569",
    "grid_d.el": "8706b432b9ab3a9b999329da63cca9ea9dd856b24949a3c2e1e8ec2a855f7c8f",
    "grid_d.el.coords.json": "4c0836b076d305570db00f215e84e33c1cba18ecce78cbc40237d50366bd213a",
    "tree2.el": "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834",
    "grid8.el": "e23fa58c0b06e41a6190472a0ea5308123e40e854b589709f3cc4632432cdc62",
    "grid8.el.coords.json": "3e0645bc2a8885455d484486e962e003f5b435dfacb0e2c247d5b62da95ffb00",
    "cycle65.el": "467f3e423e53f4477dabb535ce969c4dbe43b656ecca6ca42576d2df7a6f952c",
}

# run inside the input folder: "<name>.el" is the generated input of that
# name, and verify's header line shows the path as given
COMMANDS = {
    "boundary_tree_text": (("boundary", "--in", "tree.el"),
        "75e9488ff2be3b0aa137fbaa60df29526519c81e869b1d69602923cafd6bc664"),
    "boundary_tree_text_slices": (("boundary", "--in", "tree.el", "--slices"),
        "81965f8ee2aaec87306b6b08b0f6fa8d82f7c2a6144283a4a45639681c86a989"),
    "boundary_tree_json": (("boundary", "--in", "tree.el", "--format", "json"),
        "09c54cbb173c63a278721126dd05a0bd7ab049e3a0a9e2131e23e33f3509d756"),
    "boundary_tree_json_slices": (("boundary", "--in", "tree.el", "--format", "json", "--slices"),
        "49baf297eaff85ea7d74f556986611923ae55ba7c733677b308a8c8e2e5db875"),
    "boundary_tree_dot": (("boundary", "--in", "tree.el", "--format", "dot"),
        "f90948e459177dc4d2975ea6f8e93a032811308f3ab3bc0c15bb1978844cf740"),
    "boundary_tree_dot_slices": (("boundary", "--in", "tree.el", "--format", "dot", "--slices"),
        "f90948e459177dc4d2975ea6f8e93a032811308f3ab3bc0c15bb1978844cf740"),
    "boundary_star_json_slices": (("boundary", "--in", "star.el", "--format", "json", "--slices"),
        "efaeaef271e8747e8851b36d40e26b9b2cdb03253d7e226659e2e84a4ee45b08"),
    "boundary_star_text_slices": (("boundary", "--in", "star.el", "--slices"),
        "12fb4a4dbe240182bd5e74d5b147bf12da58fa688052e53f09e67b9b1b474cbd"),
    "boundary_k1_text_slices": (("boundary", "--in", "k1.el", "--slices"),
        "9ea912a381f2e34ff6e3c499a91ea3aa09045bd530bf3f9a62f2e97da171c21b"),
    "boundary_k1_json_slices": (("boundary", "--in", "k1.el", "--format", "json", "--slices"),
        "be62d2a89b168db1b513f0e25eb09b413bcfbf0b045f76a207d0a2d2bdfdcddd"),
    "boundary_grid_dot_cejz": (("boundary", "--in", "grid.el", "--format", "dot", "--overlay-cejz"),
        "626f421934e45a1e746578bed9d8248bc2a8234ab91e83b5fab729b02aa7c4dd"),
    "verify_grid_all": (("verify", "--in", "grid.el", "--checks", "all"),
        "2e4c9f02a256abbdec218bccf82710e95b4172e8772ca7ab356e38d420ce42a9"),
    "verify_annulus_all": (("verify", "--in", "annulus.el", "--checks", "all"),
        "555c364433195958e16add2ad694f3bb8c0ef2c196af813358742799b7b0b9ec"),
    "verify_tree_all": (("verify", "--in", "tree.el", "--checks", "all"),
        "48a76104873b96d8f30f10e9449a7ad8dbef84a65ddbf3c834647bb3fb22f7b1"),
    "verify_star_all": (("verify", "--in", "star.el", "--checks", "all"),
        "b324091018898d0dc1ae5dac10aebbf2fac93fafb9730c4ca6d4a621fbe5305e"),
    "verify_k1_all": (("verify", "--in", "k1.el", "--checks", "all"),
        "7ddd1c28c63790eec6f8a9bc66e67f471ba020e452df39ff4007ad75aa4b2b5c"),
    "verify_complete2_all": (("verify", "--family", "complete", "--params", "2", "--checks", "all"),
        "554bd9fabd06ce073ced427c3633a5da77e1a8929b75f86a32e4db7b7a6546ff"),
    # each --nmax reads every smaller graph off its own masks, on --nmax slots
    "verify_enum_1": (("verify", "--family", "enum", "--nmax", "1"),
        "8b70cf41fd971d54ead0b166c3caf6eb06f9dcf87837eaab74bc89a8a1c12825"),
    "verify_enum_2": (("verify", "--family", "enum", "--nmax", "2"),
        "517322f2f7fedc8eb68ddcd76e4312d78aaae4012895a21805f64f9df8d2a2ae"),
    "verify_enum_3": (("verify", "--family", "enum", "--nmax", "3"),
        "5b2b2e1e25173ae779f3195760ba85e50812eb3040c340aedae734524502a04a"),
    "verify_enum_4": (("verify", "--family", "enum", "--nmax", "4"),
        "96065ff6b31bccd7a0037084176774eebe93a703f1996baab81e9477a6781889"),
    "verify_enum_5": (("verify", "--family", "enum", "--nmax", "5"),
        "df0e4384a587ebb224a16d094c9c061c9df67d0ba444e7b791af855838602fb9"),
    "verify_enum_6": (("verify", "--family", "enum", "--nmax", "6"),
        "389f69f8d5fa2b040cfadcd26862541ec8f92d30914a838ebe5b14cf97c37f7f"),
    "verify_enum_5_three_checks": (
        ("verify", "--family", "enum", "--nmax", "5", "--checks", "dichotomy,thm2,laplacian"),
        "3b7c9ab890c32d3dc18b8bdbfbb6741c5416b67564a5d7c8cfd6e17087738b75"),
    # each half of the batch L f pass alone, on all 32 chunks of n_max = 6
    "verify_enum_6_dichotomy": (("verify", "--family", "enum", "--nmax", "6", "--checks", "dichotomy"),
        "45a1495c4a5ad8b790639410c5835ea311ca8aa38346b4151d8b799c5bda5caa"),
    "verify_enum_6_laplacian": (("verify", "--family", "enum", "--nmax", "6", "--checks", "laplacian"),
        "dbe1c5ebce02c39813551fc2a07bc1e234546dbf13a66316f0bac91c98cafeab"),
    "sweep_grid": (("sweep", "--family", "grid", "--sizes", "3,5"),
        "fac69a4eb8ecda008c3ca3278332ad831d34327ffc300df2f5e98d46ca045211"),
    "sweep_tree": (("sweep", "--family", "tree", "--sizes", "10,20"),
        "33cd593b9099ffba6c5f2efcfa1d5d6b1ae45ef6cd895234657b171bbfac5fee"),
    "prop4_cycle_all": (("prop4", "--family", "cycle", "--params", "7", "--all-witnesses"),
        "694d675206424e1e40e54e74e44b19140cc86c590e5f1c48c63ba490d52ffb98"),
    "prop4_annulus": (("prop4", "--in", "annulus.el"),
        "1516a16a62f63f4d7b7ddc450a57d9a82f1769f53d17d9b4279064b47d9f6e5d"),
    "boundary_grid8_json_slices": (("boundary", "--in", "grid8.el", "--format", "json", "--slices"),
        "ef8f984cd08886014603e570b8ffff88f49f30f11bcab6ec963a5980995893e3"),
    "boundary_cycle65_json_slices": (("boundary", "--in", "cycle65.el", "--format", "json", "--slices"),
        "48fe65e2fa9e56cad016bc887a7932a8f03707ace1fe72bcff494c23cf326bbf"),
    # check subsets: the laplacian and dichotomy verdicts come from one walk, alone or paired
    "verify_grid8_dichotomy": (("verify", "--in", "grid8.el", "--checks", "dichotomy"),
        "f890105355e3fcc3206c8700ff84b25b7f5c3312adec897b89da89e904125df4"),
    "verify_grid8_dichotomy_laplacian": (
        ("verify", "--in", "grid8.el", "--checks", "dichotomy,laplacian"),
        "2284534a3fd2ea1f0f528f1d1fe9653abf3e690ecdb2be75a4b60964ebd636b7"),
    "verify_er130_all": (("verify", "--family", "er", "--params", "130,0.05", "--checks", "all"),
        "a5a8b521278301bdf66d7acd82fdd0dd73f14339a05226164cb4ca7cdac82e28"),
}


# the same, printed to stdout instead of written with --out
STDOUT_COMMANDS = {
    "boundary_tree_json_slices_stdout": (
        ("boundary", "--in", "tree.el", "--format", "json", "--slices"),
        "49baf297eaff85ea7d74f556986611923ae55ba7c733677b308a8c8e2e5db875"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    for name, argv in GEN.items():
        assert main(["gen", *argv, "--out", str(folder / f"{name}.el")]) == 0
    return folder


@pytest.mark.parametrize("name", FILE_DIGESTS)
def test_gen_output_bytes(inputs, name):
    assert _sha256(inputs / name) == FILE_DIGESTS[name]


@pytest.mark.parametrize("name", COMMANDS)
def test_command_output_bytes(inputs, tmp_path, monkeypatch, capsys, name):
    argv, digest = COMMANDS[name]
    out = tmp_path / "out"
    monkeypatch.chdir(inputs)
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert _sha256(out) == digest


@pytest.mark.parametrize("name", STDOUT_COMMANDS)
def test_command_stdout_bytes(inputs, monkeypatch, capsys, name):
    argv, digest = STDOUT_COMMANDS[name]
    monkeypatch.chdir(inputs)
    assert main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
