"""Golden digests of CLI reports: a refactor that claims equal behaviour
must leave every report byte-identical.

The sha256 of each stdout report and each exit code were written down
from a run of the commands below; a change that alters any report (or
exit code) fails here and must re-derive the table deliberately.
"""

import hashlib
import json

import pytest

from tauforge.cli import main


def dense_bilinear(size: int, first_row: int, first_col: int, **ordering) -> str:
    """A normally ordered bilinear with every entry (3i + k) % 4 + 1 / (i + k + 1)
    of a size x size block nonzero, as --element JSON without spaces."""
    rows = [[f"{(3 * i + k) % 4 + 1}/{i + k + 1}" for k in range(size)] for i in range(size)]
    matrix = {"row_offset": first_row, "col_offset": first_col, "rows": rows}
    spec = {"kind": "normal_ordered", "matrix": matrix, **ordering}
    return json.dumps(spec, separators=(",", ":"))


def diagonal_product(ordered: bool) -> str:
    """Diagonal multipliers after a particle-hole block (rows -3..-1, columns
    0..2): multipliers at negative modes, a zero at mode 2, and modes -40 and
    40 far outside the auto-sized window."""
    mults = [(-40, "5"), (-2, "3/2"), (-1, "-2"), (1, "7/3"), (2, "0"), (40, "11")]
    diagonal = {
        "kind": "diagonal",
        "ordered": ordered,
        "mults": [{"mode": m, "value": v} for m, v in mults],
    }
    rows = [[f"{(3 * i + k) % 4 + 1}/{i + k + 1}" for k in range(3)] for i in range(3)]
    block = {"kind": "normal_ordered", "matrix": {"row_offset": -3, "col_offset": 0, "rows": rows}}
    spec = {"kind": "product", "factors": [diagonal, block]}
    return json.dumps(spec, separators=(",", ":"))


SOLITON_2X2 = json.dumps(
    {
        "kind": "soliton",
        "couplings": [["1", "-1/2"], ["2/3", "2"]],
        "ps": ["1/3", "2/5"],
        "qs": ["1/2", "1/7"],
    },
    separators=(",", ":"),
)


SOLITON_3X3 = json.dumps(
    {
        "kind": "soliton",
        "couplings": [["1", "-1/2", "2"], ["2/3", "2", "1/3"], ["-1", "1/4", "3/2"]],
        "ps": ["1/3", "2/5", "3/4"],
        "qs": ["1/2", "1/7", "2/9"],
    },
    separators=(",", ":"),
)


SOLITON_4X4 = json.dumps(
    {
        "kind": "soliton",
        "couplings": [
            ["1", "1/2", "-1", "2"],
            ["1/3", "1", "2", "-1/2"],
            ["2", "-1", "1", "1/3"],
            ["1/2", "3", "-2", "1"],
        ],
        "ps": ["1/3", "2/5", "3/4", "5/7"],
        "qs": ["1/2", "1/7", "2/9", "4/11"],
    },
    separators=(",", ":"),
)


def soliton_product(soliton: str, *others: dict) -> str:
    """A product whose first factor is the soliton `soliton` (its --element
    JSON), as --element JSON without spaces."""
    spec = {"kind": "product", "factors": [json.loads(soliton), *others]}
    return json.dumps(spec, separators=(",", ":"))


# a charge-0 word of two mode combinations, one of each species
LINEAR_WORD = {
    "kind": "linear_word",
    "letters": [
        [
            {"coeff": "1", "species": "psi", "mode": 1},
            {"coeff": "1/2", "species": "psi", "mode": -2},
        ],
        [
            {"coeff": "1", "species": "psi*", "mode": 0},
            {"coeff": "-3", "species": "psi*", "mode": -1},
        ],
    ],
}

LINEAR_WORD_JSON = json.dumps(LINEAR_WORD, separators=(",", ":"))


# c_empty = det(I + A K) = 1 - (1/3) * 3 vanishes at charge 0
SOLITON_VANISHING = json.dumps(
    {"kind": "soliton", "couplings": [["-1/3"]], "ps": ["1/3"], "qs": ["1/2"]},
    separators=(",", ":"),
)


# one-point solitons: c_empty = 1 + A K = 1 - (1/2) * 2 vanishes at charge
# 1, which the kp suite's mKP check reads; and a generic one
SOLITON_VANISHING_AT_ONE = json.dumps(
    {"kind": "soliton", "couplings": [["-1/2"]], "ps": ["1/3"], "qs": ["1/2"]},
    separators=(",", ":"),
)
SOLITON_ONE_POINT = json.dumps(
    {"kind": "soliton", "couplings": [["2/3"]], "ps": ["2/5"], "qs": ["5/6"]},
    separators=(",", ":"),
)


SOLITON_BY_WORD = soliton_product(SOLITON_2X2, LINEAR_WORD)
SOLITON_4X4_BY_IDENTITY = soliton_product(SOLITON_4X4, {"kind": "identity"})


def soliton_model(soliton: str, charge: int, cutoff: int) -> str:
    """`model --kind soliton` on the points and couplings of `soliton` (its
    --element JSON)."""
    spec = json.loads(soliton)
    couplings = ";".join(",".join(row) for row in spec["couplings"])
    return (
        f"model --kind soliton --cutoff {cutoff} --charge={charge}"
        f" --points-p {','.join(spec['ps'])} --points-q {','.join(spec['qs'])}"
        f" --couplings={couplings}"
    )


GOLDEN = [
    (
        "verify --suite all --cutoff 6 --seed 1",
        0,
        "f269f4d6bf7674d1c3426121369a65dc5bf543a3be87249d5c21914901bd3a3d",
    ),
    (
        "verify --suite all --cutoff 8 --seed 2",
        0,
        "b73a32746e8adf9fd29047894358178e124e0c8763115f7397e72f402a9ba785",
    ),
    (
        "verify --suite all --cutoff 6 --seed 1 --corrupt",
        1,
        "cd4157104b3bf095b2aa05620f660e0e710833625f0cf5cf8c8bbadbd9284875",
    ),
    (
        "model --kind unitary --size 2 --cutoff 6",
        0,
        "b9aa8d5b61062ec077b73dd898280fec6683f09ae3db61552b99da2539ef9b59",
    ),
    (
        "model --kind hciz --size 2 --cutoff 6",
        0,
        "161886926846ce62195d1c199c510ba45eb782c1707f18266354db5efbe57ebc",
    ),
    (
        "model --kind soliton --size 2 --cutoff 6",
        0,
        "1c6b011ad807ac26547c4350565390662ddeb6873626c0dde5b83c91873bd2b7",
    ),
    (
        "verify --suite kp --cutoff 8 --seed 3",
        0,
        "c757f6554e12964c9668a7289bb27806063b196670119e19da11a3a9234166ea",
    ),
    (
        "verify --suite wick --cutoff 5 --seed 4",
        0,
        "f5c4b30d2fed1886900aaaf57ef6c3919c9a90558771474e7fe72b44e1afce8c",
    ),
    (
        "model --kind gaussian-hermitian --size 2 --cutoff 6",
        0,
        "3aacc0d7dc3dcb49802fa6953c3ae7d8143537f6088e8c822cf8ed9a589985e1",
    ),
    (
        "model --kind gaussian-normal --size 3 --cutoff 7 --parameter 3/2",
        0,
        "2d9109df6be946fb8bf6e63e7865afbfe8c48dd1eea8d24eacc3ec5f24f9699b",
    ),
    (
        "model --kind log-squared --size 2 --cutoff 6 --parameter 1/2,3/4",
        0,
        "1c949a901cae15b48d79b6f426ef5fa12eec6837eec5c6bf8c76b51522ceca79",
    ),
    (
        "model --kind soliton --cutoff 6 --points-p 1/3,2/5 --points-q 1/2,1/7"
        " --couplings 1,-1/2;2/3,2 --charge 1",
        0,
        "f4fe0487b5b63d2465d36e9fd58b1c511b0a67de0feb73ff594e51b56b8b2fcb",
    ),
    (
        "verify --suite tau-routes --cutoff 7 --seed 5",
        0,
        "ad99ab74d531d3976081493e16bf7cd46fcaf3028b58df9d38c7fa867f4f0331",
    ),
    (
        "model --kind unitary --size 3 --cutoff 9",
        0,
        "f0bd2c7fb97cfb8d787221326bb6b96c831297eadf9c60d3dfac16fe1f8125f6",
    ),
    (
        "model --kind unitary --size 5 --cutoff 4",
        0,
        "9ac3ab26bcae12e5a4d8765a225c3fcd83f2f25179c58cf8de8714bbddd406ec",
    ),
    (
        "model --kind unitary --size 0 --cutoff 5",
        0,
        "0ec09f24e537842e6132ddeb90631a0fafa9cc4e814893f93bdca918c4008f90",
    ),
    (
        "model --kind hciz --size 3 --cutoff 10 --parameter 3/2",
        0,
        "10eac5a290a2e629891e769f33b613e49e5907c9ca5d06903f1a2117f1457095",
    ),
    # wide blocks: a particle-hole block on rows -6..-1 and columns 0..5, and
    # a block on modes -3..2 in three orderings
    (
        f"expand --cutoff 8 --element {dense_bilinear(6, -6, 0)}",
        0,
        "6a02e9b875db130fd5e35e21b948bdd2cb84b4792920b13a7181efa8387f540d",
    ),
    (
        f"expand --cutoff 8 --element {dense_bilinear(6, -3, -3)}",
        0,
        "b4a60b2533efa715c3887f4804033d8829a9a3547bf6a36bb15f029cf6228dba",
    ),
    (
        f"expand --cutoff 8 --element {dense_bilinear(6, -3, -3, ordering=0)}",
        0,
        "4161d2a53bbba201cb66748f4e84c9d493a948067f160951e7fa30ef7f80748c",
    ),
    (
        f"expand --cutoff 8 --element {dense_bilinear(6, -3, -3, ordering=1)}",
        0,
        "2c33b66e050ad90ab50438e384558d873a16cb95f7214d258f08d4fb529e4f5c",
    ),
    # diagonal multipliers in both conventions, on the states a block excites
    (
        f"expand --charge 0 --cutoff 6 --element {diagonal_product(True)}",
        0,
        "18f5152955c47fc421c625b9fcd5063bef78c4f54308eb800d089b5cd5637818",
    ),
    (
        f"expand --charge 1 --cutoff 6 --element {diagonal_product(True)}",
        0,
        "ab20d2e46664ab623a605e9c3feec066beafd738ff2efe130eeb6981686185e4",
    ),
    (
        f"expand --charge 0 --cutoff 6 --element {diagonal_product(False)}",
        0,
        "f85405d6fd57cc573babedc24bd5e453a99d32c1010246dd12d95d4076e61ab9",
    ),
    # failing kp reports, counterexamples included: a soliton and a mode word
    (
        f"verify --suite kp --cutoff 8 --corrupt --element {SOLITON_2X2}",
        1,
        "080918877520c26e9ff70690f904de3079a7f2ef50f602790268ae721c27f70d",
    ),
    (
        f"verify --suite kp --cutoff 8 --corrupt --element {LINEAR_WORD_JSON}",
        1,
        "6d578e8f8e22a673ce5e47b4ca361591cce49b5d286dc4d69d9807e4990d5414",
    ),
    (
        f"expand --charge 1 --cutoff 6 --element {diagonal_product(False)}",
        0,
        "d328d655bb295e960840447f8d00be9eae6776129816ca43629e394fa905e0c3",
    ),
    # a 2x2 soliton through the kernel route at three charges
    (
        f"expand --charge -1 --cutoff 4 --element {SOLITON_2X2}",
        0,
        "d253e84c58124213697335cb6d91db3cad1a9bcc0f00ab6ba54b0dc621ccef6a",
    ),
    (
        f"expand --charge 0 --cutoff 4 --element {SOLITON_2X2}",
        0,
        "c177ad0859af833941f2700046db297b594d88375c468b38b46c74fc2fb759c0",
    ),
    (
        f"expand --charge 1 --cutoff 4 --element {SOLITON_2X2}",
        0,
        "7d79863bde569ecb8de8fa9795ff51883d47b857042d58a68fe979a22b619f7e",
    ),
    # a 3x3 soliton through the kernel route at three charges
    (
        f"expand --charge -1 --cutoff 6 --element {SOLITON_3X3}",
        0,
        "be8c090469463fac34ac0ddce1e5c08e3c708aef7c4687ede8f60fb21ada211d",
    ),
    (
        f"expand --charge 0 --cutoff 6 --element {SOLITON_3X3}",
        0,
        "66c087fcbba7bbec12524c329144c5b20a10869fe8479c0c679b26424fbe28c1",
    ),
    (
        f"expand --charge 1 --cutoff 6 --element {SOLITON_3X3}",
        0,
        "91258b09dbd3143761f151a7a536741829418325802b17299d69e2a98173e328",
    ),
    # a 4x4 soliton at cutoff 10: shapes of Durfee size 3 (weight 9 and up)
    (
        f"expand --charge 0 --cutoff 10 --element {SOLITON_4X4}",
        0,
        "d61ee96dd87a10f3a4ae4fe7417b2928b0c0d68c39b48237b7a9247a75304c6b",
    ),
    (
        f"expand --charge 1 --cutoff 10 --element {SOLITON_4X4}",
        0,
        "2dd795f4ae6f16565bee4b27d31a07b1aff1561f093f98d72abe06a1e583cf0e",
    ),
    # point-field elements that only pair through the kernels: a soliton
    # times a mode word, a soliton whose vacuum value vanishes at charge 0,
    # and the 4x4 soliton as a one-factor product with the identity
    (
        f"expand --charge 0 --cutoff 6 --element {SOLITON_BY_WORD}",
        0,
        "af4bf00352c0640203837960fc8314813b23745b73e6fdc44027f42deef0c8c8",
    ),
    (
        f"expand --charge 1 --cutoff 6 --element {SOLITON_BY_WORD}",
        0,
        "8bfcd8b6e9aefee2d7680eb30ede3660b2d42492dd9b3754199600e5013ee69d",
    ),
    (
        f"expand --charge 0 --cutoff 6 --element {SOLITON_VANISHING}",
        0,
        "022cefb07688202b9181294045810bf9dfd53f4e9eec1e0d08dc7fcd28f19beb",
    ),
    (
        f"expand --charge 1 --cutoff 6 --element {SOLITON_VANISHING}",
        0,
        "7b8686cfca2af5dd2a298df6f1b79c4d6eea74a2a3581538989dbb0c273ad82d",
    ),
    (
        f"expand --charge 0 --cutoff 8 --element {SOLITON_4X4_BY_IDENTITY}",
        0,
        "6cba82fbf5972c87fa58422759bc92f28a47d520422408d2f4393fe8c263613b",
    ),
    (
        f"expand --charge 1 --cutoff 8 --element {SOLITON_4X4_BY_IDENTITY}",
        0,
        "cf3c56877f31e26a156a924e41af85d8d487a1e53b3879d558cb097f47f8e082",
    ),
    # the Wick reads of one-point solitons: the kp suite through a vanishing
    # vacuum value, and an expansion to weight 12
    (
        f"verify --suite kp --cutoff 8 --element {SOLITON_VANISHING_AT_ONE}",
        0,
        "624c864b45f53993ac442541f603b49c38f406ba4a471a9e74de4ae91d979ca6",
    ),
    (
        f"expand --charge 1 --cutoff 12 --element {SOLITON_ONE_POINT}",
        0,
        "0e133e8ab6fce55621cec9ee200520571db57cb78ce0ec65cb5377ef22a28532",
    ),
    # the diagonal models at their default parameters
    (
        "model --kind hciz --size 3 --cutoff 8",
        0,
        "92698e7fdcf0a4433f4e49bbd2e5a2acf080a5c13e6040879fd999b374334c81",
    ),
    (
        "model --kind log-squared --size 3 --cutoff 8",
        0,
        "7eb90a5176c5eb6b4f3e8dcc48d96bc0f9e7c905ba245470f910dec91fe13943",
    ),
    (
        "model --kind gaussian-normal --size 3 --cutoff 8",
        0,
        "1d17a5a15daabd0225d8bdb6c6b2360169deaff2318af7a4ae350904537d9d19",
    ),
    # double Schur sums: weights with large denominators, and a larger Cauchy sum
    (
        "model --kind log-squared --size 3 --cutoff 9 --parameter 2/3,3/2",
        0,
        "712450b6aed2a9f5756f7a1c64ddc586f5b6188515db72386d8dff667f1497fd",
    ),
    (
        "model --kind unitary --size 4 --cutoff 10",
        0,
        "9ca612f8a0d609dabcdbad99d2027e3187affdfdac6db65743335903a91046aa",
    ),
    # soliton models, read through the Wick table that `expand` reads: a
    # vanishing vacuum value (the table's bordered branch), the 4x4 soliton
    # to weight 12, and three points with zero couplings
    (
        "model --kind soliton --cutoff 8 --points-p 1/3 --points-q 1/2 --couplings=-1/3",
        0,
        "dce15ae35eddecc18381c7990cb37f2b36524a7d2d5822ee3fe905ab87ba56b0",
    ),
    (
        soliton_model(SOLITON_4X4, -1, 12),
        0,
        "03f407f6a6d9f5f4bbed66a64c4966642d8b0f05a193a0c3b19b0db0f9e60766",
    ),
    (
        soliton_model(SOLITON_4X4, 0, 12),
        0,
        "439917b41ec07bf885647ba75d111847d77dd92e24f1b568a9fd12a63626260a",
    ),
    (
        soliton_model(SOLITON_4X4, 1, 12),
        0,
        "46ac29f3e1c6b39d1fec0f5cf705f5e34228c55310ac6f902bf58d4b15494432",
    ),
    (
        "model --kind soliton --charge=-1 --cutoff 8 --points-p 1/3,1/5,3/4"
        " --points-q 1/2,2/7,5/6 --couplings 1,0,2;0,1/2,0;1,1,1",
        0,
        "ce8f00731e403e631becdd487e956c77f12025845669c302a088d6cbd4665068",
    ),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_digest(capsys, command, code, digest):
    got = main(command.split())
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
