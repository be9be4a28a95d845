"""Golden outputs: SHA-256 of the JSON and DOT renderings of the worked tables.

The digests were recorded before the bitmask cover kernel replaced the
generic transitive reduction, so any refactor of the lattice code that
changes a single byte of a result on these contexts fails here.  The WIDE
digests were recorded before the writers joined names through per-byte
tables: unlike the worked tables, WIDE has names that need escaping and
subsets that cross byte boundaries.  The ``dprod_escaped`` digests were
recorded while fn and fuzzy concept elements still went through a dict per
element: its names need escaping and hold the DOT label's own separators.
The CLI digests of ``check`` and ``reconstruct`` were recorded while their
JSON was still assembled in ``cli.py``.  The ``dprod_escaped`` and
``godel_metachars`` digests of ``check``, and all of ``godel_metachars``,
were recorded before ``check`` rows were rendered from one ``%`` template
per report, while each row was still a dict tree: ``godel_metachars``'s
names hold that template's own metacharacters.  Record again only for an
intended change of output format.
"""

import csv
import hashlib
import io
from fractions import Fraction

import pytest

import tables
from galois_factor import (
    BooleanContext,
    concepts,
    cn_enumerate,
    factorize,
    fn_enumerate,
    fuzzy_concepts,
)
from galois_factor.cli import main
from galois_factor.io import emit_dot, emit_json, format_cxt

BOOLEAN = {
    "TABLE1": tables.TABLE1,
    "TABLE2": tables.TABLE2,
    "DIAG2": tables.DIAG2,
    "WIDE": tables.WIDE,
}
FUZZY = {
    name: getattr(tables, name)
    for name in (
        "godel_r1", "godel_r2", "luk_table3", "dprod_r1", "dprod_r2", "dprod_escaped",
        "godel_metachars",
    )
}
BUILDERS = {
    "concepts": concepts,
    "cn": cn_enumerate,
    "factorization": factorize,
    "fn": fn_enumerate,
    "fuzzy-concepts": fuzzy_concepts,
}
EMITTERS = {"json": emit_json, "dot": emit_dot}

DIGESTS = {
    ("TABLE1", "concepts", "json"): "3f146fd9617ae5e095b0160c5080eab46939f57afddd116200f59500cd191f44",
    ("TABLE1", "concepts", "dot"): "b212ebcd2c70c32347d03805ff041426bac57ba063046fc88dd76a9bccfd1833",
    ("TABLE1", "cn", "json"): "6a30a84135f1d40d0ac4938168b9d341926c3fb6ccdf73db7e91bfb44b0a9797",
    ("TABLE1", "cn", "dot"): "38e45e87f169d8fd4b0dfe606ce7ab6d0c572c57b31b158929cb6bdc7b1a5a25",
    ("TABLE1", "factorization", "json"): "14ad32c50c65a3ec5e4a2a3a24fa321a790e2d2fb6bf778dcf727d816b23b601",
    ("TABLE1", "factorization", "dot"): "572e0707b96b1aa2af34ac1741afcc95b5e808a7355e55bc5f5a613e67e20703",
    ("TABLE2", "concepts", "json"): "e76c6cf0429161abc0d5e97acee494509a563156332e5cbce8691b54b3d4b540",
    ("TABLE2", "concepts", "dot"): "6208c13af37fb1412f651664805a8afbee484b4057a2d1ea001a0fdddfcdf533",
    ("TABLE2", "cn", "json"): "a9a7ad845b804d10875651462d3be4271e42680d44747e29a67488b5d785535f",
    ("TABLE2", "cn", "dot"): "dad59c875fd36c20c205fa5ef1b13a011c16cacfa88c04d3972005597463637a",
    ("TABLE2", "factorization", "json"): "b1a5dd07ab498ddc3eb70f314c651d772fc679fae41cece7ca37fe524d7abe51",
    ("TABLE2", "factorization", "dot"): "8ea8e97bce434eea91fefe97f9da9726dd8eb1c9fdcbff44b2b7710fc08aeecd",
    ("DIAG2", "concepts", "json"): "b9ec2ef1534b192afbe81c71d5fada9021e2ef742fd273cdc53dcc9209905b23",
    ("DIAG2", "concepts", "dot"): "11d2706fefb498ba6d230c0c823ec1b9f4ddbc21f965a3e78a69b5729c9b685c",
    ("DIAG2", "cn", "json"): "5b0a00402d1d214943f8908420968376d6517efb0c08e6b4cefe3c12dd504b9c",
    ("DIAG2", "cn", "dot"): "3c3facc949f16aa9c5f28ceeb1c621cf72c48c72c8efb45335d2ec467c923571",
    ("DIAG2", "factorization", "json"): "4f94078f2dd8c12bdc8ae3fb548840925342eba6326f38567451d8f8e262ea6f",
    ("DIAG2", "factorization", "dot"): "f2ba73453a9093d68fc45521b752e9a7b05d84f043d1ecd51401bc1d38d26c09",
    ("WIDE", "concepts", "json"): "d238ebf0cddccd33b098a0d60540e8b3ad128de0c5c4c413c9e10a73b3286a2d",
    ("WIDE", "concepts", "dot"): "c85dee6579691e00ede94ff6966136ccd22de4901ebc182ec83f88ed65725692",
    ("WIDE", "cn", "json"): "4968a634269c05c53ff238019993a8a583e6447be76152a9c8417b39513f1184",
    ("WIDE", "cn", "dot"): "aaf8d611075347936d364b30f515f140547642379766f2814fc776ca3980b925",
    ("WIDE", "factorization", "json"): "103b4c175ea91bcc87a1ff713074a0e4352871e8a90ece43d8667e4e3f492a0a",
    ("WIDE", "factorization", "dot"): "d0a5085c6196f10aafa128ca8e5c2b4da9df86a7e5a80264c24692e1a00f38aa",
    ("godel_r1", "fn", "json"): "3650d5bca85b344a1c21e50146f12e099a1eb7e12c31b8bc017358560d472d8d",
    ("godel_r1", "fn", "dot"): "d693fa03b6d5042f7eeb809feaeb4b26eb93d00351d78d8f7cd4627ed1f74e89",
    ("godel_r1", "fuzzy-concepts", "json"): "847aa4101efaec41da651cd578dbf61965e5090e9b9b6a4b5e5935a0fd1069ed",
    ("godel_r1", "fuzzy-concepts", "dot"): "c679ee7131823055f43cdc600caccb3bfa370a4ef45d11f16fb3927e2dedef36",
    ("godel_r2", "fn", "json"): "93dcd9e4d8814661f8be3ba1c51c8b1618a66555860c81401a61c8a1a030cd88",
    ("godel_r2", "fn", "dot"): "54fcb207ef5a2c2e7987a3f2d9b085a8c65144a6e1816aefc11a709813d1f662",
    ("godel_r2", "fuzzy-concepts", "json"): "8d23bd044561f3e6a44683009f7c4bbeaa37ac0f7e233cfdaa3d269826d7626c",
    ("godel_r2", "fuzzy-concepts", "dot"): "f3ecad10773b9babd964eb226c41f55ef45e8ad20cbcbbc6140d36daa38f2f22",
    ("luk_table3", "fn", "json"): "ba965a97848873774a9014965d908d22b342bd39c429ed84866c0a629cdc8f36",
    ("luk_table3", "fn", "dot"): "3d8aa121be697031f674f7d57b1a3e9d015432e5159864ec7a3dfe25933a06fc",
    ("luk_table3", "fuzzy-concepts", "json"): "23193991b00c854ae90a59e17a20f741978a36fc3d51cc19532b10d3762a240e",
    ("luk_table3", "fuzzy-concepts", "dot"): "ea74e8781da0f685870728e90260d9546b368f9e7b2d40fe786cdfa8690e67fd",
    ("dprod_r1", "fn", "json"): "ef150dc1cf6e82ceb14225c17204c347633044905efc3b397280525ab87cca87",
    ("dprod_r1", "fn", "dot"): "589f089b81d6325ea2120a3671db7dd330a0f177898e1d248c09484855cbb167",
    ("dprod_r1", "fuzzy-concepts", "json"): "63aff1eb27dbbb15ec77e8fa22be749c9b877e029dc2e580e20447bc54a454a0",
    ("dprod_r1", "fuzzy-concepts", "dot"): "bbcd7fa0f41f59f2fd242256ea28fd20fc8841b2664aea5df55bec0bc54f27ee",
    ("dprod_r2", "fn", "json"): "a77d8284faf0bdb3efa67561ca9aa45598900286a4d5c02899295d25c605858e",
    ("dprod_r2", "fn", "dot"): "ed37435f2694b5265ed51764c115c403d8c85ced81d6db8cdbae23e014b3049f",
    ("dprod_r2", "fuzzy-concepts", "json"): "46980104a691d5d827eeacb807af12394580b3625c14079bb2f657dec6dd5f63",
    ("dprod_r2", "fuzzy-concepts", "dot"): "f569aeeaa1fddf5cc262dfb090cc3329efa148c23db829e8c9f9069df6bd4b11",
    ("dprod_escaped", "fn", "json"): "7d4a1aa55581d310df3c944d103717c7c583f567f3bf17d1be1eacc6d684b658",
    ("dprod_escaped", "fn", "dot"): "49c9ae2d1f7e9a2160ea53f9cd60cc1957f2a7bcfc71942b53d463661370dfdf",
    ("dprod_escaped", "fuzzy-concepts", "json"): "0d4ce6b2ed26768e763d266f53bd096d0908a23ed0c138f22b41b5187e446dc4",
    ("dprod_escaped", "fuzzy-concepts", "dot"): "f674a651a4513e233f1beb4032407c97e8c80332a0212ae5072aede6e4fccfc4",
    ("godel_metachars", "fn", "json"): "ab82f04dca382397fa9203ef7ea995a69b306ecf061f8f3d7cf7fbf1d7c9b03c",
    ("godel_metachars", "fn", "dot"): "17bd935a797c65b4a921ba9e8e410c4bf3b481fb8a9d999febd7bba3c3b76f26",
    ("godel_metachars", "fuzzy-concepts", "json"): "7e4360fb98a4f51b6aba9e868f09dd944c209c5d7e05fe28d1470df88a4c2947",
    ("godel_metachars", "fuzzy-concepts", "dot"): "958bf6370b78ae7a80a9c22e6344f4ba09fa1a301c17ef69e240ff5e8e77b29c",
}


def _context(name):
    return BOOLEAN[name] if name in BOOLEAN else FUZZY[name]()


@pytest.mark.parametrize("name, kind, fmt", sorted(DIGESTS))
def test_output_matches_recorded_digest(name, kind, fmt):
    text = EMITTERS[fmt](BUILDERS[kind](_context(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name, kind, fmt]


def test_every_table_and_result_kind_is_recorded():
    boolean_kinds = ("concepts", "cn", "factorization")
    fuzzy_kinds = ("fn", "fuzzy-concepts")
    wanted = {
        (name, kind, fmt)
        for names, kinds in ((BOOLEAN, boolean_kinds), (FUZZY, fuzzy_kinds))
        for name in names
        for kind in kinds
        for fmt in EMITTERS
    }
    assert set(DIGESTS) == wanted


# TABLE1 with a full attribute row and an empty object column, so that
# reconstruct has removals to report
TABLE1_PADDED = BooleanContext.from_rows(
    tables.TABLE1.attributes + ("top",),
    tables.TABLE1.objects + ("none",),
    [row + (False,) for row in tables.TABLE1.incidence] + [[1] * 6 + [0]],
)
CLI_BOOLEAN = {"TABLE1": tables.TABLE1, "DIAG2": tables.DIAG2, "TABLE1_PADDED": TABLE1_PADDED}

CLI_DIGESTS = {
    ("check", "godel_r1"): "58c981daab74ce31d763144ad9cc829ca786c79fec35384cb90b06cada5738dd",
    ("check", "godel_r2"): "e706b38775da2d3a0ba29cb34397c63a0d0a43cd34b356ff2a5ef68c2b157399",
    ("check", "luk_table3"): "70e7e5065f5758cf9d84421ca36474ee0f6b958a6e0d843e03ee92625a171f73",
    ("check", "dprod_r1"): "c3d37bbce38632a3405422908fd348ab55ea72e20bf77d92f06a73880451373f",
    ("check", "dprod_r2"): "64017a61361fbe48ef0c071abbca84f2ae7551a33089f7cdbf4c7f6235ba1143",
    ("check", "dprod_escaped"): "159fc27507e1dd9a6959a448ddd5c1c522b1f7493fbf32832ce1ff209d7c9033",
    ("check", "godel_metachars"): "5e21c37e0c35863bc11cbd52d156774f8e7fd9479cdc7248ca3308c2b364059d",
    ("reconstruct", "TABLE1"): "c42623a2e4e91cf68b6a00faa3cf22819146377a1725ce2c521154323d1fc3fe",
    ("reconstruct", "DIAG2"): "31565d78f39449d7bea72c4a2fd77b201fcaac9943c42a2c10e7fb78863ea34b",
    ("reconstruct", "TABLE1_PADDED"): "d5be5898ed28f645174ecf8e7f36ac098b0cb9c29c41d995f637de03b2affb01",
}


def _fuzzy_csv(ctx) -> str:
    """The CSV of ``ctx``, its names quoted where they hold a comma or a quote."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["R", *ctx.objects])
    for name, row in zip(ctx.attributes, ctx.relation):
        writer.writerow([name, *(str(Fraction(v, ctx.p.m)) for v in row)])
    return out.getvalue()


@pytest.mark.parametrize("command, name", sorted(CLI_DIGESTS))
def test_cli_output_matches_recorded_digest(tmp_path, command, name):
    out = tmp_path / "out.json"
    if command == "check":
        ctx = FUZZY[name]()
        path = tmp_path / f"{name}.csv"
        path.write_text(_fuzzy_csv(ctx), encoding="utf-8")
        argv = ["check", str(path), "--frame", ctx.triples[0].name, "--pairs", "all"]
    else:
        path = tmp_path / f"{name}.cxt"
        path.write_text(format_cxt(CLI_BOOLEAN[name]), encoding="utf-8")
        argv = ["reconstruct", str(path)]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_DIGESTS[command, name]


# ``format_cxt`` renderings, recorded while the writer still walked the
# incidence grid cell by cell
CXT_DIGESTS = {
    "TABLE1": "ab1dc7fecf4fab1c5b1977a0d2db2e4c953a95d07cfa8292276016d6bc4347bd",
    "TABLE2": "454dee9e1ba5b656b69fb7dd1521d91c59944bd9a5099c94043d786927bd9755",
    "DIAG2": "9be8dcc206d9a65a4d076c2a70006c83e9e15ba1bb3d0de9bba61bc544b45a1f",
    "TABLE1_PADDED": "208edd4a7636e14b36e5eaecdb1027da5086e962dc91b11ab75d74a4b8e3570d",
}


@pytest.mark.parametrize("name", sorted(CXT_DIGESTS))
def test_format_cxt_matches_recorded_digest(name):
    ctx = {**BOOLEAN, "TABLE1_PADDED": TABLE1_PADDED}[name]
    digest = hashlib.sha256(format_cxt(ctx).encode()).hexdigest()
    assert digest == CXT_DIGESTS[name]
