"""Byte-identical CLI output on a golden set of inputs.

The digests are SHA-256 of stdout, recorded before the exact elimination
routines were merged into one; the composite-level `invariants` and the
`dim --check 5^-3` digests were recorded before the cusp columns were
derived from the e^0 column; the `invariants` digests of 3^+5, 2_II^+6,
5^+4 and 7^-4 were recorded while invariants still projected every
isotropic element, before it read its picks from the generators; the
2_6^+2.4_II^+4 and 2_II^+8 digests were recorded while Echelon still
eliminated rational rows over Fraction; the 2_1^+3.4_1^+1.8_II^+2
digests were recorded while the two-four and two-eight lifts still went
through the quotient route; the E8 and A2+A2+A2 `jacobi` digests were
recorded while theta enumeration still counted every vector of both
cosets of each {gamma, -gamma} pair; the 3^+4.5^+2 and 2_II^+6.3^-2
`induced-basis` and the D8+E6+A2 `jacobi` digests were recorded while
invariant_generators still tensored the p-parts' generators by a route of
its own, beside fundamental_lifts; the D4+D4+D4 `jacobi` digest was
recorded while every theta coefficient up to the precision was still
counted by enumeration, before the series were read from M_k(SL2(Z)); the
7^-4, 3^-2.5^+2 and 16_II^+2 `verify` digests were recorded while verify
still checked rho(S)^2 and the fixed projections through the public rho,
one Cyclo per entry, before it read them off the packed integer kernel; the
s2dim --check 7^+2 (a nested object and fraction strings), A1 jacobi (the
odd-rank note and an empty basis) and text-format invariants digests were
recorded while the CLI still printed through json.dumps with indent and
read integer coefficients back from Cyclo.  A refactor that keeps every result
exact keeps every digest; a digest that changes means some output changed.
"""

import hashlib

import pytest

from test_cli import ROOT, run_cli

GOLDEN = [
    (["invariants", "--symbol", "5^+2"], "40afb8bfec565bc8d3c5a99ee69de33cc1687dd936c5522d30893c183ebcf698"),
    (["invariants", "--symbol", "3^-4"], "a4cccdc3af7f7982a00ba1ad62f90b7dd24be445d1362a91db3077424d14dc65"),
    (["invariants", "--symbol", "2_II^+4"], "026ab7370943d75c8716dde284d9de81ea2bc9f9cb22261844fa822a4ec66724"),
    (["invariants", "--symbol", "2_2^+2.4_II^+2"], "b7c42a0d2d5f405333b158b017a55db3c6492dc9d829ab1ec94ac94044043e74"),
    (["induced-basis", "--check", "--symbol", "3^-4"], "e1c1721cab44575510db1a0d43693ed24a3f20d643731bf79828b4baf47c0d8b"),
    (["induced-basis", "--check", "--symbol", "2_II^+2.3^-2"], "24ae5a7384b5458ff6ddcbc13ebc5af0e51cba02efec67bc1608901008aead77"),
    (["invariants", "--symbol", "2_II^+2.3^-2"], "812c8b8ddf9767490c702a10c518f891cb58248e3c08d0e7b6764ffb0466fdd3"),
    (["invariants", "--symbol", "3^+5"], "a89d62b488f95b22f6eb8092f026a8d802ca2ab15cb8761b639571a9c9753e18"),
    (["invariants", "--symbol", "2_II^+6"], "f7bae15b45544456e344c0e6570b909eb389ae305666b6ef5a9d7efdd7ae90cf"),
    (["invariants", "--symbol", "5^+4"], "a9c386a3ddf84ad8acb7c1327b20c6176868426a94a8604833a184d60a7ed810"),
    (["invariants", "--symbol", "7^-4"], "4422dfc36081a84dc57dc66921965c6645297c174b77da76af1bca75eef72612"),
    (["dim", "--check", "--symbol", "3^-2"], "b59ce5b18ffa4e1edc0f46d63ff31c0bed7d768a59b1b714ab38162d0f86feac"),
    (["dim", "--check", "--symbol", "5^-3"], "ba6e7c49eda1f569412bf0857b2054449288f2c91851bda57aa105b7a0159967"),
    (["verify", "--symbol", "2_0^+2"], "e3244c6f5c49ecf6a3a261ee7c6c149b048bc78db78ca5c9411cfe1f1fb580bb"),
    # verify's rho checks: S^2 = Z and the projections fixed by rho, at prime, composite and 2-power level
    (["verify", "--symbol", "7^-4"], "2655d8f4fe1b4bd140be81e4a2fb44627f9fed43f2c150240eb3c69a283ce080"),
    (["verify", "--symbol", "3^-2.5^+2"], "0628711b6db091443d864dfb279e00714e0feae7d095206bfe6097ada9a77ab6"),
    (["verify", "--symbol", "16_II^+2"], "fda4eb694ec3d5d3bb4f6bc1194a7796c1b9981eac5cb5f0d1a31f102f7bc38e"),
    # the document embeds the --gram path, so it is given relative to the repository root
    (["jacobi", "--precision", "3", "--gram", "tests/gram_4I4.json"], "de568cf153571a788f9d1a9a01bed6732c9e8c29b5d727fcb6427c1e09ddc7be"),
    # theta series: the zero coset of E8, and one entry on 8 cosets of A2+A2+A2 (pairs gamma, -gamma)
    (["jacobi", "--precision", "5", "--gram", "tests/gram_E8.json"], "9637bea2186b48ebefe62f8295b2b8abc4429ef8f54099b0bc4cff4e82f6d51e"),
    (["jacobi", "--precision", "8", "--gram", "tests/gram_A2A2A2.json"], "b8ea5df597aaebd90acd1d13c22c72c9e481511daa47f9ecc9e45cddb59d394a"),
    # larger integers in the eliminations: the two-four route with 140 generators, and dim 2_II^+8
    (["induced-basis", "--check", "--symbol", "2_6^+2.4_II^+4"], "e120489cfa7a3a8d5046f8d5df963cc8e841e3d9239340290d843361be1e9b29"),
    (["invariants", "--symbol", "2_II^+8"], "ca61e91e510490788ff3a2336ca40a189eadd8d6d035cc26a8b85639f1acf850"),
    # the two-eight route
    (["induced-basis", "--check", "--symbol", "2_1^+3.4_1^+1.8_II^+2"], "879eb180b58b14eac4fbda96cad52e355e82076f5a71bbafb6481dae082d25b3"),
    (["invariants", "--symbol", "2_1^+3.4_1^+1.8_II^+2"], "010ea1435c1b14fc42dd0665f58c07331f643847fb2282bcaf8248f0d23e1c19"),
    # composite level: generators in product order over the p-parts, and the Jacobi basis sorted by H
    (["induced-basis", "--check", "--symbol", "3^+4.5^+2"], "a614da246ea324ef9f4c5182ae018f624e2cab95ace069423b75cc6050f50168"),
    (["induced-basis", "--check", "--symbol", "2_II^+6.3^-2"], "c9e9a7e692777e9aeea6833684b67326b731fb567381f0961bc3ab30e486b892"),
    (["jacobi", "--precision", "0", "--gram", "tests/gram_D8E6A2.json"], "038ab9c70fea2c85f79ee8186ae6b4512bae71e86a046738f3bb71aeb71992eb"),
    # 27 entries of weight 6, each extended past c(1) by E6
    (["jacobi", "--precision", "2", "--gram", "tests/gram_D4D4D4.json"], "cc08fa1c27bc8a0fc7b8ca7d7f456195b975674183945c5a56836415a219a005"),
    # the shapes of the JSON writer: a nested object with fraction strings, an odd-rank note
    # beside an empty list, and the text format
    (["s2dim", "--check", "--symbol", "7^+2"], "4e99c567a2cb6f37ad662193f4d4dbbe8c02a120ee5d5df5da6381b3ec2e8629"),
    (["jacobi", "--precision", "3", "--gram", "tests/gram_A1.json"], "c55d9989f536c3c28155f0258c7d569d78badeb4899bef4cda84227415b2b858"),
    (["invariants", "--symbol", "3^-2", "--format", "text"], "0722ae8ac97f4a12bf6b7dc9974712b99475ccc7159578ec8e7e69e005b2c29f"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(argv, digest, monkeypatch):
    monkeypatch.chdir(ROOT)
    status, out = run_cli(argv)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
