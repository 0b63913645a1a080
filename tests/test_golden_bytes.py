"""Byte-level guard on the command line's JSON reports.

Each entry pins the SHA-256 of the stdout that one invocation prints.  The
digests were recorded before the root engine was merged (one certified root
set per polynomial), so a change that moves a single output bit of a Mahler
variant, a density bound, a seeded witness or a Trench determinant fails
here.  A change that alters the mathematics on purpose re-records the
affected digests and says why: the Trench digests of the symbols with
irrational roots were re-recorded when the closed form became exact for
every symbol, so they print an exact integer where a float stood, and the
mahler and bound digests of polynomials with irrational roots when the
double-precision root engine with an exact certificate replaced the mpmath
ladder, which moved their radii and the last bits of their enclosures.
The mahler and bound digests of 2,-3,1 and -2,1, whose roots are rational,
were re-recorded when rational roots joined that engine: a root reached
exactly has radius 0 instead of a two-ulp conversion slack, so their
enclosures narrowed in the last bits.  Ten were re-recorded when the
reversal x^d A(1/x) stopped getting a root set of its own: the conjugate
measure is now the plain measure folded over A's roots, so each conjugate
report equals the plain one but for `variant` (on 3,-2,-9,-3,9, -1,-1,1,
2,-3,1, 1,3,-4,0,2,-1,5 and -2,1 its value or error moved), and
eps_refined reads the reversal's refined product as
|a_d| * prod max(1, |alpha| - 1) over A's roots, which moved the last bits
of eps_refined in the bound reports of 3,-2,-9,-3,9, -1,-1,1, 1,0,2,0,1,
1,3,-4,0,2,-1,5 and 1,1,1.  No other field moved.  The two newton
digests and the csv and pretty RENDERINGS were recorded before the report
envelope (schema, command, the polynomial and the echoed inputs) moved out
of the handlers into `main`, so they pin the report shapes that no other
digest covers.  The basis, index and gram-growth digests after the newton
pair, and the critical-eps and certify-nondense renderings, were recorded
before the result records stopped echoing their inputs (`--tol 1/7`, the
decimal `--eps 0.4`, the positive pivot rule), so they pin the values that
`main` and the handlers now write from the parsed arguments.  The two
stress-size digests (order 400) were recorded while the elimination still
ran on dense rows, before it moved to row spans and the Toeplitz rows to
band slices, so they pin every Gram and Toeplitz pivot at that size.  The
certify-nondense digest at its degree-4 guard edge (m = 36) and the index
digest of a non-monic quadratic at m = 60 were recorded while the minor table
still expanded each minor along its last row and the integral basis still
multiplied its HNF coordinates into T, so they pin every zonotope minor and
Z-basis row those two routes gave.  The two trench digests of rational symbols
given by hand (s = 0, and H_t run well past its seeds) and the two basis
digests at m = 30 and 40 (one with p | a_d, one under the positive pivot rule)
were recorded while Trench's H_t, the recurrence tables and the canonical
basis's selector solve each still ran their own loop over the recurrence, so
they pin every H_t and every canonical row those routes gave.  The bound and
witness digests of (x^2 + 2)(x^2 - 2x - 2) were recorded while its root
factor still took the snap, its centres of +-i sqrt 2 not being mirrors of
each other, so they pin the disks that route gave.  The mahler and bound
digests of 10^14 (x - 35)^2 - 1 and the mahler digest of (x - 1)(x - 10^200)
pin the only command-line routes into the snapped centres and into the exact
disk comparison (a squared centre distance past the float range).  A failing
digest prints the report it hashed.
"""

import builtins
import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from kronrec import density, poly_core
from kronrec.cli import main
from kronrec.poly_core import IntPolynomial, roots

BIG = 10**200
# 10^14 (x - 35)^2 - 1: its close real pair certifies through the snapped centres
SNAPPED = "122499999999999999,-7000000000000000,100000000000000"
# (x - 1)(x - 10^200)
FAR_APART = f"{BIG},{-(BIG + 1)},1"

GOLDEN = [
    ("mahler --variant plain 3,-2,-9,-3,9", "53bbb1cb9234ed532e038e277aded17b2a63a0baabd35d2393a029348ce5a942"),
    ("mahler --variant half_scaled 3,-2,-9,-3,9", "faa7af9484565c92b1ea5c000781a0268b137b0722e973b798bfa8aa64ff4793"),
    ("mahler --variant double_scaled 3,-2,-9,-3,9", "2b4f8f30d698e5c91e71fabe16bf2f1917ceaeb87f9da48b61e18fea10a211ee"),
    ("mahler --variant conjugate 3,-2,-9,-3,9", "899c8a1bddce2a2e5869c53c5b3d2a80c0e3e24e7d59a28d31f2f0d08363caa8"),
    ("bound 3,-2,-9,-3,9", "47ef96dfe3c7421cff0359af47fcfc331fe64214e37ba1eb97260b754f703e56"),
    ("mahler --variant plain -1,-1,1", "ff3b07b8ebcf24b1c4f85aee7e4ed6ace59b3b6baea9c916c7a0e798b98f2117"),
    ("mahler --variant half_scaled -1,-1,1", "694011ee3cf2aeb4044cb4af88e3533b102e177c7fdb7a4f7c57510436e383f2"),
    ("mahler --variant double_scaled -1,-1,1", "ba856d1cee7f532b3815e43b1f3fd05ffb960b3266d99a94c3beb08e8207a936"),
    ("mahler --variant conjugate -1,-1,1", "e0371af023d1d52064135ba49763e02f9550e76b639824abcf8d61f66fa7113a"),
    ("bound -1,-1,1", "f41667ff74a878ec9d644afd15dd7166afe1ffa69bb35e904eee259cc7d1115a"),
    ("mahler --variant plain 1,0,2,0,1", "baf28dda8e805b46a2967179c6cd7d4e6e04a2dcced19ba4a12ddc9b2a374cc0"),
    ("mahler --variant half_scaled 1,0,2,0,1", "3357f29093681f643d7a6db8643b99bb5152f0cb1dea02725705b624b21ef75d"),
    ("mahler --variant double_scaled 1,0,2,0,1", "bb2d8cdb5f2195f3e29682b9cc658818016cc79d5ea0bba0d3fb201c55e5817b"),
    ("mahler --variant conjugate 1,0,2,0,1", "4281a89e028166cfd036711278bdcb2b0f02cfa014cae1ff62ff54d54566b2f4"),
    ("bound 1,0,2,0,1", "53b303464aa6db72e8ef0de410a6ee311aed528134d132b1ee0d1462fbe9ce88"),
    ("mahler --variant plain 2,-3,1", "1eca5061001deb9e1af31d484b71f3cb5310b858e2288b8558f66ca6fba960b8"),
    ("mahler --variant half_scaled 2,-3,1", "ab81b84c64d4aa834a7e893b69832dc57c85497d54b63f2b01c6dc181ae4c63f"),
    ("mahler --variant double_scaled 2,-3,1", "a7e338f23b30538fabeb2d84e217b5531f76da9a074c817a65e7af38619b8f2d"),
    ("mahler --variant conjugate 2,-3,1", "141c705e9c667696bd8fd0b7831c80722d064dce3e840762d473b671792cbe81"),
    ("bound 2,-3,1", "859619137de8a0bebd7215ea6c31b81bb6bde34ff83d29423f97d1ad3ffdb805"),
    ("mahler --variant plain 1,3,-4,0,2,-1,5", "c12ce7b99d838d99f34083911c418fd9b845dd4aa81c20f4e017fceca2211489"),
    ("mahler --variant half_scaled 1,3,-4,0,2,-1,5", "21bddfb8f1e6cfe2c6a7555205419da0e3ee330608262a282d219a841529ca1f"),
    ("mahler --variant double_scaled 1,3,-4,0,2,-1,5", "6c0031c5407ab2434b77033204de74b389ffb1e803ada6d525084426f586956e"),
    ("mahler --variant conjugate 1,3,-4,0,2,-1,5", "7d90bab9a06722691580627484e8663a66e1006c527d276f237b67ae59c446e5"),
    ("bound 1,3,-4,0,2,-1,5", "e0a40668e100905f3a32b808ee0475b982a65ca8726da563db71c6a858bf28e0"),
    ("mahler --variant plain -2,1", "3d3795c5adf2fdfaeed56be97d4b7d1eaa4709e1ba6b0821f69669592fc11c32"),
    ("mahler --variant half_scaled -2,1", "4b42b394cd05ba12f4f1d92659e2ca8f1cdcc79d30da8dd119fe92bcce7b0a6f"),
    ("mahler --variant double_scaled -2,1", "a6346d351635461d64254fc8283f134807ccb660adccc3947555a60d7a34ab44"),
    ("mahler --variant conjugate -2,1", "03a674a0acfead468b39381ec5ed5718febb9bbc4f8024fca87cbb497d6e4de8"),
    ("bound -2,1", "2facb897f1b36a3eff868df2659edb7124e7448f107781f956c8c5d14d56b90a"),
    ("mahler --variant plain 1,1,1", "4c7c43ff5641004d6c19a5a9bbba485ac040a543c6e6db94a2aa120363bfedc7"),
    ("mahler --variant half_scaled 1,1,1", "f98458bbfc7bc18880e89a045ff528fce074cc1281c5b4542ec815fcb296cc5d"),
    ("mahler --variant double_scaled 1,1,1", "c560345a6497fdd55c0c9189825ccc03aeff9b07ee5f920d5cdd1b03c3a9831f"),
    ("mahler --variant conjugate 1,1,1", "dbb7bffb2f544291c2825b2431c9e89859fef3a6cd429dd8e80abd02e86576b1"),
    ("bound 1,1,1", "7c1528ddf0dc9048f016b6ddb70b4371cf481a43aa419a8338e0dd4042c852b0"),
    ("witness --m 7 --seed 3 3,-2,-9,-3,9", "f0a3b80688bc302ce930b225a2fbe9dd38fda58bcc1572f607831c524c400462"),
    ("witness --m 5 --seed 11 -1,-1,1", "51cda25167e3b7d635dc9382bc66c9cf1cd3e955b1ce55e37a67c39ca42c4fca"),
    ("witness --m 9 --seed 2 1,3,-4,0,2,-1,5", "54bb752b6e6fbbc7dd846df1eced018803c227650a7175bef5352eb7d31f6552"),
    ("witness --m 4 --seed 5 -2,1", "c09058407a28303d8773b196633037cd3f7d6af54540e95fb9118a94ed2f87a8"),
    ("witness --m 8 --seed 1 1,0,2,0,1", "f5f552ec69bcdd05ca60e587c2baaeba4c8febd27dcd66478dfc7c71d067ad59"),
    ("trench --autocorrelate --n 20 -1,-1,1", "d22c75abe9b36e20b27768e3640bccac0f7991d5f33b70120717c79c5aa94a0b"),
    ("trench --autocorrelate --n 60 -1,-1,1", "438258b28ff28748095c56e9319de1e5c4dc6b3271fd6bb50ffdc89ea58fda41"),
    ("trench --autocorrelate --n 20 3,-2,-9,-3,9", "254fa028c35ccdd4dafc9845c2880bb3a4f61e9b5adc4599ec2f3cf888137ed4"),
    ("trench --autocorrelate --n 60 3,-2,-9,-3,9", "1c825a311a3280fd71cd125d984cabf51af1fcc367ed3663d6a581b9a5de73b5"),
    ("trench --autocorrelate --n 20 1,1,1", "dc383bb116b10fd5a9b1bfc1b006e79abd1be3b65d3b33ab8c7da0db1749b248"),
    ("trench --autocorrelate --n 60 1,1,1", "baf02d91178f1980ee95da418067378303e6bfef1698e04508920fbb884cf799"),
    ("trench --autocorrelate --n 20 1,0,1", "e046731cac5d15e79ae8dbac9785faaecdf94c2a469471d833f000b06c4e2958"),
    ("trench --autocorrelate --n 60 1,0,1", "90e0cf18d2ebf89fdb1a3c0ec05c83532aa2b49b1070cba8e2d567eaa9cba12a"),
    ("trench --autocorrelate --n 20 1,2,-1,3", "3bd3da17338390d890937e5ec8d23d179a399e5dc10802f8d83bb44759be55e1"),
    ("trench --autocorrelate --n 60 1,2,-1,3", "b09d96c4b1a1974f89c77b97d8e7435190c3b0b4e5d6189536e23f350a81812d"),
    ("trench --autocorrelate --n 20 -2,1", "3d1e8ee3870d8400b68c2f75356302701b6ef29502a6fd6ba298df5445f77517"),
    ("trench --autocorrelate --n 60 -2,1", "ce611b9773e32c7c046fae4f52980b93c6289f7e13eae9033abda8fdf7523e12"),
    ("trench --autocorrelate --n 20 6,-5,1", "f7023afbed68047f479c7adf72ed46cf3f20193591ea87a8a931582f80319819"),
    ("trench --autocorrelate --n 60 6,-5,1", "c4311d5b34c28d30800825821d6274bc56ec26becd95733b41f4078d104f9b72"),
    ("trench --autocorrelate --n 20 2,-3,1", "fcf9ef66277883e31554902170def5e3b58959517d68992ccc13efdd840cc67d"),
    ("trench --autocorrelate --n 60 2,-3,1", "f30cb63fcd15b228814be070726061367f2e69632805545c418bf7c89f56ed6f"),
    ("trench --autocorrelate --n 20 -6,1,1", "cf40ed506b421c68fded443a7b0d9d67b141ceefc01e2bd89ce006c9af271c35"),
    ("trench --autocorrelate --n 60 -6,1,1", "29017fc4800b37f1fe98ee396d93733f247943d172fba39cb325f9fe1094738f"),
    ("newton --p 3 3,-2,-9,-3,9", "91dc5e743c9250f2fe626d65b469669152b72cb86ce7954ede73750101aa0a6a"),
    ("newton --p 2 4,-6,1,2", "df6da24f4a8728e22c7d75b1e57bc4a43f968b6633fa3406b40d85c05f27670c"),
    ("basis --p 2 --m 7 --pivot-rule positive 6,-5,1,4", "1bbe194241d865eed40a678907d51bd9de0158f4aac2716521b5d0429a8f3ed4"),
    ("index --m 6 2,0,-3,5", "15617fda9e72094fe020abf67d693d6a9af001dd46f1b98a093d5510d8372c72"),
    ("gram-growth --ell-max 20 1,3,-4,0,2,-1,5", "a4f492c5ec33a4cae0d978c1ef44f1bf7f9caa6030814a856f07061d6f84542a"),
    ("gram-growth --ell-max 400 -1,-1,1", "d8cdbdefc2384352566ddc1c06a895b203b46378f51450847482bab2292505fd"),
    ("trench --autocorrelate --n 400 -1,-1,1", "89c21d8133d14396a6c901586c7b040af4014ff917eb3dc86d3b362245ebf137"),
    ("certify-nondense --m 36 --eps 1/2 3,-2,-9,-3,9", "8b1693fc3f47821df103909ec6df155e1b725978b84fb821c949554a8f3b8bee"),
    ("index --m 60 -3,-1,-3", "c73ce1d9cdea188ad115ab462cd980dc91555c62c12f78f65349f25ad91340dc"),
    ("trench --n 12 --r 2 1/2,0,3", "eb0294b37fb51763b0630367402d6974740490de88d3dd8de908b11d262d7e43"),
    ("trench --n 40 --r 2 1/2,-1,3,2/3", "495ac3ca70ec599bd1a6e1ebab29e36b5bb8e4d5f77e0b861b2fa28ab9b75f74"),
    ("basis --p 3 --m 40 3,-2,-9,-3,9", "61a72a87b5a883cf204ad856ad466282ecffd3566cd656ea0dc7940bd4629c34"),
    ("basis --p 2 --m 30 --pivot-rule positive 6,-5,1,4", "20c3cf7f6f45285151f1ad7b9cc39971413a716ff27fb926e6fc0ee29941a9dc"),
    ("bound -4,-4,0,-2,1", "c1d65c62a43dccc4e28eeae7979343650952c82e1226b9f74812058229c117cb"),
    ("witness --m 7 --seed 3 -4,-4,0,-2,1", "3d911c565ba006daece840f81eabe4c05edb843671c8031b34151753667e5c48"),
    (f"mahler {SNAPPED}", "a812c332836e0c397ca519fe911b104fe2b1519f82a08f6d050b25360eafe9f6"),
    (f"bound {SNAPPED}", "2d5456f8d437c1d396c6c6446efe2c6ead81db2852aca075bc2ba574539818c8"),
    (f"mahler {FAR_APART}", "7f1a47d4bac13dc8fd5cc6fcd41b5c48c00bffb63bb81a0710845180c487581c"),
]

# the non-JSON renderings of the same payloads
RENDERINGS = [
    ("--format csv index --m 3 -3,2", "b67f1eb51cbc8bf03bb7b1dd5bd0616a6d5465e5c8118fe74c21673d6d4f8c30"),
    ("--format pretty bound -2,1", "b69e1599e9e87ff593fada5249488b83d2c0059ef734afd61ded165bdcc2612d"),
    ("--format csv critical-eps --m 4 --tol 1/7 -1,-1,1", "b8de55ab15d42a531f4a1a1f7030ee7fcfc9e87eaba50423a640c8da47d4d9a5"),
    ("--format pretty certify-nondense --m 6 --eps 0.4 3,-2,-9,-3,9", "8936bb4871e3b369b669c97f1e84615d689bcc63d33666dca6e451fb092665ac"),
]


@pytest.mark.parametrize(
    "command, digest", GOLDEN + RENDERINGS, ids=[c for c, _ in GOLDEN + RENDERINGS]
)
def test_stdout_digest(capsys, command, digest):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


@pytest.mark.parametrize("command", [f"mahler {SNAPPED}", f"bound {SNAPPED}"])
def test_snapped_pins_reach_the_snapped_centres(monkeypatch, capsys, command):
    calls, snapped_centres = [], poly_core._snapped_centres

    def spy(cs, zs):
        calls.append(cs)
        return snapped_centres(cs, zs)

    monkeypatch.setattr(poly_core, "_snapped_centres", spy)
    assert main(shlex.split(command)) == 0
    assert calls == [tuple(map(int, SNAPPED.split(",")))]


def test_far_apart_pin_overflows_the_float_screen():
    """The double screen of _disks_disjoint passes no pair whose squared
    centre distance is infinite, so the exact comparison decides this one."""
    (z, _, _), (w, _, _) = roots(IntPolynomial((BIG, -(BIG + 1), 1))).roots
    dx, dy = z.real - w.real, z.imag - w.imag
    assert dx * dx + dy * dy == math.inf


def _compensated_sum(terms, start=0):
    """sum() over floats as Python 3.12 and later take it, with Neumaier's
    compensation; a sum with no float goes to the builtin."""
    terms = list(terms)
    if not any(isinstance(t, float) for t in terms):
        return builtins.sum(terms, start)
    total, carry = float(start), 0.0
    for x in map(float, terms):
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carry


@pytest.mark.parametrize(
    "command, digest", [pin for pin in GOLDEN if pin[0].startswith("witness")],
    ids=[c for c, _ in GOLDEN if c.startswith("witness")],
)
def test_witness_digest_under_a_compensated_sum(monkeypatch, capsys, command, digest):
    """The witness folds its float rows left to right, so its bytes do not
    move with the interpreter's sum()."""
    monkeypatch.setattr(density, "sum", _compensated_sum, raising=False)
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# the autocorrelation symbols above whose roots are not all rational
IRRATIONAL_TRENCH = [
    command for command, _ in GOLDEN
    if command.startswith("trench")
    and command.split()[-1] in {"-1,-1,1", "3,-2,-9,-3,9", "1,1,1", "1,0,1", "1,2,-1,3"}
]


@pytest.mark.parametrize("command", IRRATIONAL_TRENCH)
def test_irrational_trench_is_exact(capsys, command):
    assert main(shlex.split(command)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trench"] == doc["direct"]
    assert isinstance(doc["trench"], int) and doc["exact"] is True


def test_console_script_digests_are_pinned_by_the_goldens():
    """Every digest the CI workflow checks on the installed console script is
    one that a golden test pins, so re-recording a golden cannot leave a
    stale CI pin behind."""
    root = Path(__file__).resolve().parent.parent
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text()
    ci = re.findall(r'test "\$digest" = ([0-9a-f]{64})\b', workflow)
    goldens = "".join(p.read_text() for p in sorted(root.glob("tests/test_golden_*.py")))
    assert ci and [d for d in ci if d not in goldens] == []
