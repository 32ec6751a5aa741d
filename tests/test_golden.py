"""Pinned stdout of `compute det` and `enumerate lsds` on every matrix family, and of
the other `enumerate` subjects."""

import hashlib

import pytest

from detrec.cli import main

FAMILIES = {
    "E-vars-ge-n": ["--family=E", "--n=5", "--vars=5"],
    "E-vars-lt-n": ["--family=E", "--n=6", "--vars=3"],
    "C-symbolic": ["--family=C", "--n=6", "--r=3"],
    "C-integer": ["--family=C", "--n=7", "--coeffs=2,-1,3"],
    "G": ["--family=G", "--n=7", "--r=3"],
    "F": ["--family=F", "--n=6"],
    "S": ["--family=S", "--n=5"],
    "A": ["--family=A", "--n=6"],
}

# the flags of each other enumerated subject's pinned cases: the 512 cyclic
# words of n = 9 fill exactly one chunk of output lines (``cli.CHUNK_LINES``),
# so their summary is written on its own, and the larger cases run past one
ENUMERATIONS = {
    ("enumerate tilings", "symbolic"): ["--n=7", "--r=3"],
    ("enumerate tilings", "integer"): ["--n=12", "--r=3", "--coeffs=2,-1,3"],
    ("enumerate circular-tilings", "n14"): ["--n=14"],
    ("enumerate words", "n7-vars6"): ["--n=7", "--vars=6"],
    ("enumerate cyclic-words", "all"): ["--n=9"],
    ("enumerate cyclic-words", "avoid-abb"): ["--n=7", "--avoid=abb"],
}
CASES = {**{(command, family): flags for command in ("compute det", "enumerate lsds")
            for family, flags in FAMILIES.items()}, **ENUMERATIONS}

# sha256 of the stdout of `detrec <command> <flags> --format <fmt>`,
# recorded before E became C of the signed e_t and the LSD routes took the
# matrix itself, and for ENUMERATIONS before `enumerate` counted and summed
# its objects as it streamed them
GOLDEN_SHA256 = {
    ("compute det", "E-vars-ge-n", "json"): "ed90b26ccbc5fabc2494913d33d4e5c9977d353d96f42c8d294dccecea2cbed0",
    ("compute det", "E-vars-ge-n", "pretty"): "d82259ca6c8010cbef2676d4f2d75e7a9d945f19b841e198b7a90f13af113949",
    ("compute det", "E-vars-lt-n", "json"): "1c6bc8ef65afe4e5ec2c20dc342ebe34270eab714125409fb68675859f3d3f1e",
    ("compute det", "E-vars-lt-n", "pretty"): "ed7fb16da89d28b691ac93b4b498d39f2610d869a18e8c5155144e8db05c43a5",
    ("compute det", "C-symbolic", "json"): "2bb40c1ec4ed1497c3a8300f3de5724eb1cae7f8d38d4bf351ff7572679415f1",
    ("compute det", "C-symbolic", "pretty"): "78561e61d61708fb8a3c31e7b5b81f0c156c2e633764cb3d20c3a88b2a81326f",
    ("compute det", "C-integer", "json"): "87574c1abffa14d93d932b1f75f4360b83c6d1ccf3e514c6ca4de4081a9fbd31",
    ("compute det", "C-integer", "pretty"): "b608bd363de6741237a5a75072c346ebfc41a9f95265fe2de3659b9cc4669a49",
    ("compute det", "G", "json"): "b1ce0aa6fdf3cf349d773243dab9fbbe09d30619f38b0c1e8977e28c4f0bc495",
    ("compute det", "G", "pretty"): "015966f90cd4048e6fc01ef87f11617b4552eb3d048e34ccd2eb7492cfbe37bf",
    ("compute det", "F", "json"): "1a252402972f6057fa53cc172b52b9ffca698e18311facd0f3b06ecaaef79e17",
    ("compute det", "F", "pretty"): "113868df80c690e31ec25bcc8558e7654b6ad8600428c66be6fa432a0946014c",
    ("compute det", "S", "json"): "d69c418718ac5f5246ca360b19aa5098171a7d8c57b614446cfd69f54ec4e280",
    ("compute det", "S", "pretty"): "aaa18d22bde03751d878496595b4aff4f20158ded7faa95b26239ae6105d45c9",
    ("compute det", "A", "json"): "a4b2c5db15348c29451e18b8307e5ef81625ea638e807935f39ceaa8d9ac7758",
    ("compute det", "A", "pretty"): "7f656764091ac58ac95abfc568af85ab441795dc6c464d80bd767460a3b8c37b",
    ("enumerate lsds", "E-vars-ge-n", "json"): "2d8fe6a6ebfb3d61d4d6b0b6498ace69902d8e3afcf5463ef0f8f7b87f4ef054",
    ("enumerate lsds", "E-vars-ge-n", "pretty"): "de9fbc9cf52b372c23bfeafb76ef4f95ee78dae2cc72f0206887a8f6517f4ca0",
    ("enumerate lsds", "E-vars-lt-n", "json"): "cbd2be0c8973b7667c9ecf53a8fd66f96f73be8743ca181aa4c7eb6a5ff99d69",
    ("enumerate lsds", "E-vars-lt-n", "pretty"): "da9becde32811e86b5e5a5cfe358a0723947b21ca32533c2969a3bca6cd4dedd",
    ("enumerate lsds", "C-symbolic", "json"): "ecf74444f8e7eb11106a4532e92d803cfe05fecf7b87368696443beb6088ac32",
    ("enumerate lsds", "C-symbolic", "pretty"): "4722cef48865c47d20a3a3662e6363e08b983760e17f0f0f6935c059396ea3cf",
    ("enumerate lsds", "C-integer", "json"): "ba9f288ebba19d083ce0e64aa5a003e360fa5b25a944e762b3420a8045f5da61",
    ("enumerate lsds", "C-integer", "pretty"): "cbe3c494670104dae60e17028bd7c613a7634f1864f82a627b4a72f18dce30ce",
    ("enumerate lsds", "G", "json"): "efef2c83429228973237fa55085082ad413027bfee4cf5a654bef0b5ebb4f358",
    ("enumerate lsds", "G", "pretty"): "f58b540adaf2c1ccbce8f6be801feddc63fd73bfe688b2072d0fd714743a6f4d",
    ("enumerate lsds", "F", "json"): "68272bf7ae6f910c2b6a88b9ef5fe77b2750846b1863509d58cd29e7f8688e13",
    ("enumerate lsds", "F", "pretty"): "a9bfc535d0cf23f9413ca0bad109607359e83ef2f7eb7757133df61d19415d91",
    ("enumerate lsds", "S", "json"): "25ac44d5513c850c5e1ec770b78351a9a1c9c76467539287126670a3d53362a6",
    ("enumerate lsds", "S", "pretty"): "77a40189f694a11376295fc1f9802cb7bd6656d5a4c1bb591590d8e305a5bac7",
    ("enumerate lsds", "A", "json"): "3b55b5cf70f2da2e85800739421aa510e7843727a5989ba4a81eaed9a6b97773",
    ("enumerate lsds", "A", "pretty"): "bc4c5b17780cd7ca8eb95600001c49b17163dfca78f3f0d9d0b7d0ad2f20a753",
    ("enumerate tilings", "symbolic", "json"): "ef8fffdc20373e9115099c349ff76563d801bdb78dae83c95258181661965d24",
    ("enumerate tilings", "symbolic", "pretty"): "f026883efb2507499c3883b1f812461b5b4dd1ebac5b13eb870b4bd5ef374ab3",
    ("enumerate tilings", "integer", "json"): "61f9af7c6318b3609a4e13388bfad3cb32caac37f43a8169db96b833f4135721",
    ("enumerate tilings", "integer", "pretty"): "44415d41379f4df0858662bb4556c7fdf3710ebea2db602ae743d2c1e55d1eb8",
    ("enumerate circular-tilings", "n14", "json"): "b4c00127990d63ad43c1c06c9c7e073665cb932a0b3aa50a90a0fae662f87a7b",
    ("enumerate circular-tilings", "n14", "pretty"): "17e8f4e2669838bcb0f52f0689c0cd79ea82df2fe2f045fcc8a6c0b2a4d36484",
    ("enumerate words", "n7-vars6", "json"): "96fe389a6155f6d0228cb292574230be4ea799572b7299d2b023766bb6f30e46",
    ("enumerate words", "n7-vars6", "pretty"): "212266b719b3888ca9a56047113b2f1669a86c9322b4b657189f3249674b91c2",
    ("enumerate cyclic-words", "all", "json"): "c725642d2854ba2f84ea146b0dffeb07d45d7a7d9052351cc1df68f300d80319",
    ("enumerate cyclic-words", "all", "pretty"): "e40e330e52b88265d96b94bee736bbc1c6a678b14a09fe44e913924e6447663a",
    ("enumerate cyclic-words", "avoid-abb", "json"): "9cae6b4b2f632cdacd93216c8c54e3a87a6c3e123d6510410bb778620a279239",
    ("enumerate cyclic-words", "avoid-abb", "pretty"): "9c3b8409141fb564653f06d488761851b831cf7950938205c566d76ab3edccb1",
}


def test_every_family_is_pinned_in_both_formats():
    assert set(GOLDEN_SHA256) == {(command, family, fmt) for command, family in CASES
                                  for fmt in ("json", "pretty")}


@pytest.mark.parametrize("command, family, fmt", sorted(GOLDEN_SHA256))
def test_matrix_output_is_unchanged(capsys, command, family, fmt):
    assert main([*command.split(), *CASES[(command, family)], f"--format={fmt}"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_SHA256[(command, family, fmt)]
