"""Byte-identical replies: the sha256 of each ``cli.run`` reply to a fixed
list of exact requests.

A change that only simplifies the code keeps every digest; a change that
means to alter a reply updates the digest and says why.  ``bounds`` and
float exponents or values are left out: CPython 3.12 changed how ``sum()``
adds floats, so those replies differ between the supported versions.  Poset
files are written to a temporary directory and named by relative paths, as
the reply echoes the path.
"""

import hashlib
import json
import random

import pytest

from meetjoin import divisors
from meetjoin.cli import RunConfig, run

POSETS = {
    "div12.json": {"divisors_of": 12},
    "div12set.json": {"divisors_of": 12, "set": [2, 3]},
    "worked.json": {"generated_by": [6, 10, 15], "set": [6, 10, 15]},
    "wedge.json": {"n": 4, "relation": [[1, 2], [1, 3], [3, 4]], "set": [2, 4]},
    "bowtie.json": {"n": 4, "relation": [[1, 3], [1, 4], [2, 3], [2, 4]]},
    "nofn.json": {"n": 2, "relation": [[1, 2]]},
    "div12swap.json": {"divisors_of": 12, "set": [2, 3, 4, 6]},
    "bad.json": '{"n": }',
}
VALUES = {
    "v_div12.json": {"1": 1, "2": 2, "3": 3, "4": 4, "6": 6, "12": 12},
    "v_div12neg.json": {"1": 1, "2": -1, "3": 2, "4": 5, "6": "1/2", "12": 7},
    "v_worked.json": {"1": 0, "2": -1, "3": 3, "5": -2, "6": 5, "10": 2, "15": 3},
    "v_wedge.json": {"1": 1, "2": 2, "3": "5/2", "4": 4},
    # The second leading minor is 0, so det_general swaps rows past step 0,
    # in a block whose rows have denominators 2, 1 and 2.
    "v_div12swap.json": {"1": -1, "2": 2, "3": "1/2", "4": 3, "6": 3, "12": -1},
}


def _set(command, members, family, **kw):
    return dict(command=command, set_text=members, family=family, **kw)


def _poset(command, path, **kw):
    return dict(command=command, poset_path=path, **kw)


def _text(members):
    return ",".join(map(str, members))


# The first check-pd of the seed-0 gcd-exact bench pool: C3.4, with det
# from an 80x80 integer elimination.
GCD_EXACT_80 = _text(random.Random(0).sample(range(1, 3000), 80))
# C3.6 on 40 divisors of 720720, with det from a 40x40 elimination of
# entries 1/lcm(x_i, x_j), whose denominators differ along each row.
LCM_720720_40 = _text(random.Random(0).sample(divisors(720720), 40))


REQUESTS = {
    "build-gcd-canonical": _set("build", "6,10,15", "power-gcd"),
    "build-gcd-closure": _set("build", "6,10,15", "power-gcd", ambient="closure"),
    "build-lcm-canonical": _set("build", "4,6,9", "reciprocal-power-lcm"),
    "build-lcm-closure": _set("build", "4,6,9", "reciprocal-power-lcm",
                              ambient="closure"),
    "build-gcud-alpha2": _set("build", "4,6,12", "gcud-power", alpha="2"),
    "build-min-alpha2": _set("build", "3,1,2", "min", alpha="2"),
    "build-max-csv": _set("build", "3,1,2", "max", fmt="csv"),
    "check-pd-gcd-canonical": _set("check-pd", "6,10,15", "power-gcd"),
    "check-pd-gcd-closure": _set("check-pd", "6,10,15", "power-gcd",
                                 ambient="closure"),
    "check-pd-gcd-closed": _set("check-pd", "1,2,3,6", "power-gcd"),
    "check-pd-lcm-closed": _set("check-pd", "1,2,3,6", "reciprocal-power-lcm"),
    "check-pd-lcm-canonical": _set("check-pd", "4,6,9", "reciprocal-power-lcm"),
    "check-pd-lcm-closure": _set("check-pd", "4,6,9", "reciprocal-power-lcm",
                                 ambient="closure"),
    "check-pd-gcd-negative-alpha": _set("check-pd", "2,4,8", "power-gcd",
                                        alpha="-1"),
    "check-pd-max-csv": _set("check-pd", "1,2,3", "max", fmt="csv"),
    "check-pd-gcd-exact-80": _set("check-pd", GCD_EXACT_80, "power-gcd"),
    "check-pd-lcm-720720-40": _set("check-pd", LCM_720720_40,
                                   "reciprocal-power-lcm"),
    "classify-gcd-canonical": _set("classify", "6,10,15", "power-gcd"),
    "classify-gcd-closure": _set("classify", "6,10,15", "power-gcd",
                                 ambient="closure"),
    "classify-lcm": _set("classify", "4,6,9", "reciprocal-power-lcm"),
    "classify-lcm-12-primes-closure": _set(
        "classify", "2,3,5,7,11,13,17,19,23,29,31,37", "reciprocal-power-lcm",
        ambient="closure"),
    "closure-gcd-canonical": _set("closure", "6,10,15", "power-gcd"),
    "closure-gcd-closure": _set("closure", "6,10,15", "power-gcd",
                                ambient="closure"),
    "closure-lcm-canonical": _set("closure", "4,6,9", "reciprocal-power-lcm"),
    "closure-lcm-closure": _set("closure", "4,6,9", "reciprocal-power-lcm",
                                ambient="closure"),
    "build-poset-values-meet": _poset("build", "div12.json",
                                      values_path="v_div12.json", kind="meet"),
    "build-poset-values-join": _poset("build", "div12.json",
                                      values_path="v_div12.json", kind="join"),
    "check-pd-poset-values-oracle": _poset("check-pd", "worked.json",
                                           values_path="v_worked.json"),
    "check-pd-poset-values-meet-refuted": _poset(
        "check-pd", "div12.json", values_path="v_div12neg.json", kind="meet"),
    "check-pd-poset-values-join-refuted": _poset(
        "check-pd", "div12.json", values_path="v_div12neg.json", kind="join"),
    "check-pd-poset-identity-join": _poset("check-pd", "div12.json",
                                           function_tag="identity", kind="join"),
    "check-pd-poset-power-meet": _poset("check-pd", "div12set.json",
                                        function_tag="power", alpha="2",
                                        kind="meet"),
    "check-pd-poset-reciprocal-join": _poset(
        "check-pd", "div12set.json", function_tag="reciprocal-power",
        kind="join"),
    "check-pd-poset-tree-meet": _poset("check-pd", "wedge.json",
                                       values_path="v_wedge.json", kind="meet"),
    "check-pd-poset-tree-join": _poset("check-pd", "wedge.json",
                                       values_path="v_wedge.json", kind="join"),
    "check-pd-poset-values-swap": _poset("check-pd", "div12swap.json",
                                         values_path="v_div12swap.json"),
    "check-pd-poset-no-meet": _poset("check-pd", "bowtie.json",
                                     function_tag="identity", kind="meet"),
    "classify-poset-no-meet": _poset("classify", "bowtie.json"),
    "classify-poset-tree": _poset("classify", "wedge.json", kind="join"),
    "closure-poset-meet": _poset("closure", "div12set.json", kind="meet"),
    "closure-poset-join": _poset("closure", "div12set.json", kind="join"),
    "closure-poset-no-join": _poset("closure", "bowtie.json", kind="join"),
    "error-kind-against-family": _set("build", "2,3", "reciprocal-power-lcm",
                                      kind="meet"),
    "error-unknown-family": _set("build", "6,10", "nope"),
    "error-not-positive": _set("build", "0,3", "power-gcd"),
    "error-missing-file": _poset("check-pd", "missing.json",
                                 function_tag="identity"),
    "error-bad-json": _poset("classify", "bad.json"),
    "error-no-function": _poset("check-pd", "nofn.json"),
}

# Float replies whose digests may differ between interpreter versions,
# while their layout does not.
GCD_FLOAT_100 = _text(random.Random(0).sample(range(1, 3000), 100))
LAYOUT_ONLY = {
    "build-gcd-float-100": _set("build", GCD_FLOAT_100, "power-gcd", alpha="1.5"),
    "check-pd-gcd-float-100": _set("check-pd", GCD_FLOAT_100, "power-gcd",
                                   alpha="1.5"),
    "bounds-lcm-720720-40": _set("bounds", LCM_720720_40, "reciprocal-power-lcm"),
}

# The exit code and the sha256 of the reply, per request.
DIGESTS = {
    "build-gcd-canonical": [0, "06134c96b8979b0ba6085764a3fc1ddd7a4c4a7eec376ee5b047546fc440253d"],
    "build-gcd-closure": [0, "86a17666d1762eea5d04bc85dea5e1b1e091424f683ddd90bd036fce98105ad5"],
    "build-gcud-alpha2": [0, "6be8ceeef1b991bf3c45a679fdb328bb0cb8f0cdbc676dcb9249780c9b36e1d1"],
    "build-lcm-canonical": [0, "4ad8abe8d5359a890fd12c0fc2ebf5ea281e1033e2a20da6866d55da6042c199"],
    "build-lcm-closure": [0, "aeec90715fb00afeb13328512861a835696f636570d9bc14622c90dafe2dcc89"],
    "build-max-csv": [0, "bce10cd24236c3f2de548aaca1a97c2030f82057db9ceca21c72723b35a72d25"],
    "build-min-alpha2": [0, "5c9ea0e8b2cd4aac8663fb0833973dcb92e01035a0738cc2fb73737166c8688b"],
    "build-poset-values-join": [0, "485743254ec05eec5544e45055bed3aae59bb66c066bd79c97775e4834912e3b"],
    "build-poset-values-meet": [0, "80fd769b362fb4497acbdfc71ae57d90d73e2d1694e674d47c43391c0fda9439"],
    "check-pd-gcd-canonical": [0, "cd19db00a36d4edeb4a67bc63d68771d4566414b25fda211c8f7710f74e33bf4"],
    "check-pd-gcd-closed": [0, "bc271e5c26a040a5b4a677b67815ece3f401e58b7a7bbafbc9e7c55fd1eb7344"],
    "check-pd-gcd-exact-80": [0, "6f4f30bb9250df5f83abaf93dd48ad70d3a1c7bf550e447a30bf3c2e8cdb0f6b"],
    "check-pd-gcd-closure": [0, "8fb9b0b0b57ee527ea74fef3fcc4cbbb5b3c77328f9830b9d38f2cae2754c1d4"],
    "check-pd-gcd-negative-alpha": [0, "0da0cfc6da56a6fa3dd96cdc2f714f027ddf0ed012cc1e7ac9e758db0212bd86"],
    "check-pd-lcm-720720-40": [0, "0b61f6baa83984dfc33b1e64e79e00d983f2c9b80640b41c74f471a6f100fead"],
    "check-pd-lcm-canonical": [0, "137594d2a08731ed0510b6f6a90f1f6a243e8c9cc1add00166ca2d082dcc203a"],
    "check-pd-lcm-closed": [0, "b68a873307851d385f4fb7d4a7765f72bf996e0f1ef69abab542de4af841d30a"],
    "check-pd-lcm-closure": [0, "d9b633bad0c9d4d0642dbc2e84af7ed469574bec42ac0b9fa3ab547fd7cfda37"],
    "check-pd-max-csv": [0, "4500aaf4f904a46ec060763c779aa71ba2cdf35bc2f97ef9ed3f5655f55b3311"],
    "check-pd-poset-identity-join": [0, "52acf91a0cac24006afc4e17723f76e60e0b6bf86d594de7afdcdac315362832"],
    "check-pd-poset-no-meet": [2, "426c650e1f44b581179baf584b691baadee0f6e6a771e8a05d78ce0ce0cbe412"],
    "check-pd-poset-power-meet": [0, "b99c8b46eb61de3e8cffdddb55e5139f04011899ae5cc94e32b3b6d0cdec7e34"],
    "check-pd-poset-reciprocal-join": [0, "9ca9745654bbc66f2b10a328cdcb0f69c383abf49e9cc07dda8b4cab62d86fb6"],
    "check-pd-poset-tree-join": [2, "6bb2f293fa33bbf649897c322b765bb955a0dedda0c1e3521cbb4e91aab7d377"],
    "check-pd-poset-tree-meet": [0, "1a2025b1232659bf8eb3617ca149f7ad1fdcfe7f0f73e8edd7e41f81cd38423c"],
    "check-pd-poset-values-join-refuted": [0, "c650686099d51ff5d3baf1e739afb7a758dce65502a51feea55c593e84f54b79"],
    "check-pd-poset-values-meet-refuted": [0, "bd4777e0bac8a92ffb7cb976c2cc1be338730eb8fa45ef961d7e457d8b6cc7fc"],
    "check-pd-poset-values-swap": [0, "014f10c8c8756d6fd86a868405e1bfab9f98d47b494a96039b69137e6f9f2a7c"],
    "check-pd-poset-values-oracle": [0, "0be0719a35a2ece5a3ea1a0562c4b4bc88197a3482a7d9b6ca0633b6cb0eba65"],
    "classify-gcd-canonical": [0, "a13d0f950a682f3b986ced7d15883c12477d1a92e58a55facd31ed91dfb2b99e"],
    "classify-gcd-closure": [0, "dce8a48fbaf71478acc438d31b65bd5da295f2ecf4efbe542e782c75f6b57600"],
    "classify-lcm": [0, "44b70ecaf6f30e7da8e8e1d07c2472376372823053dc19f9363607cb2a25e0bf"],
    "classify-lcm-12-primes-closure": [0, "671111abe7def3a49b229fffbf43bd626fdd45c036a68abccce321e6ae77fe8e"],
    "classify-poset-no-meet": [0, "6a85484933d7fe2bb205c1ee06fa0acfa607b649d65b71b94051a6c1c7b60584"],
    "classify-poset-tree": [0, "6d46cec4d9a3c659fb75e007165ca61c724460a3f4040661b40681bdbb30c77a"],
    "closure-gcd-canonical": [0, "a9c10ab6d258ba8566c845bfb5031cf9c2035a3452a08c97591afff1d7f06062"],
    "closure-gcd-closure": [0, "3a1fe3c797b09e6a6681eeb008038dd9d9f52dc84b828316952a7054e178dbff"],
    "closure-lcm-canonical": [0, "e8291120b4abb8e0608b9e414279f753fb2362c181d0b73c563d3253554bee02"],
    "closure-lcm-closure": [0, "f6c8ce5075efe838fce5b2219ce2feec405810ccb3e43f832c947988d49beaad"],
    "closure-poset-join": [0, "ca1deff73cff3914729f2d61afb78a618e04d8f07fb60160a8e023b4dfe900d2"],
    "closure-poset-meet": [0, "a597428a391f77fef5d4704ba4de0e4f3ac87c44c832561cdd53c0843a07aee1"],
    "closure-poset-no-join": [2, "d2be14303b4438ee2d8e8b53e7a70ec3b47bee57110bf754746394c14bf740c1"],
    "error-bad-json": [1, "0aaedc63c41737718ea1fb33ab261bcee4134b86f344bf66eb99d1c64ec21056"],
    "error-kind-against-family": [1, "d1013973f2b2cc9936f891b13b1aac4974e77b89493d54ec8dd4d7375b42fc1a"],
    "error-missing-file": [1, "b8b5333982ece9f878fc213477141c20d9791dc7afcdd4e9f904795b831b3c3d"],
    "error-no-function": [1, "87d186d902d87855ee0afae7fc1403fd01f7109b3dbf109efc0c04f7b1608ba5"],
    "error-not-positive": [1, "324677ba1f87cab0b7b61de8ff0d6c16ccaaeb406a2be122ecbd48d08fec0ea2"],
    "error-unknown-family": [1, "d5bec3749c4ace0888e1bb241246ca3f46dc1595f2d1f4abcda8d41c0e791544"],
}


def write_files(directory) -> None:
    for name, body in {**POSETS, **VALUES}.items():
        text = body if isinstance(body, str) else json.dumps(body)
        (directory / name).write_text(text, encoding="utf-8")


def digest(request: dict) -> tuple[int, str]:
    code, text = run(RunConfig(**request))
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_reply_is_byte_identical(name, tmp_path, monkeypatch):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert list(digest(REQUESTS[name])) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(
    name for name, request in {**REQUESTS, **LAYOUT_ONLY}.items()
    if request.get("fmt") != "csv"))
def test_reply_is_the_indented_json_layout(name, tmp_path, monkeypatch):
    # The writer lays replies out as json.dumps(indent=2) would, byte for byte.
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    _, text = run(RunConfig(**{**REQUESTS, **LAYOUT_ONLY}[name]))
    assert text == json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n"
