"""Byte-level guard on the command line's JSON reports.

Each entry pins the SHA-256 of the stdout that one invocation prints.  The
digests were recorded before the root engine was merged (one certified root
set per polynomial, Trench's numeric path on the Aberth iteration), so a
change that moves a single output bit of a Mahler variant, a density bound, a
seeded witness or a Trench determinant fails here.  A change that alters the
mathematics on purpose re-records the affected digests and says why.
"""

import hashlib
import shlex

import pytest

from kronrec.cli import main

GOLDEN = [
    ("mahler --variant plain 3,-2,-9,-3,9", "6b599c2432fd746120079505bc1654dbdf85eeec7b1283c57392b69a2615a271"),
    ("mahler --variant half_scaled 3,-2,-9,-3,9", "4b7a801d3bf8f182e3b2f62cc71dc10c89e932680892acdb3af97b04e485bb00"),
    ("mahler --variant double_scaled 3,-2,-9,-3,9", "2b4f8f30d698e5c91e71fabe16bf2f1917ceaeb87f9da48b61e18fea10a211ee"),
    ("mahler --variant conjugate 3,-2,-9,-3,9", "c11671f794142f8fdb5ae47c5aa76bb101da36ddac0740b4c808676ddd969c60"),
    ("bound 3,-2,-9,-3,9", "843b5c4f70769e4d54b4dc8bfefb7387193453527850f36d7ec7cded7a2de642"),
    ("mahler --variant plain -1,-1,1", "a2ca6de282f3bacf99d2f76b215bc2de53a3b4f30272c06c61d1ccedc6f0ee68"),
    ("mahler --variant half_scaled -1,-1,1", "3e037318339744f6f7b703ae597aed8d7dfc38de1d7cf4895378815322f8824d"),
    ("mahler --variant double_scaled -1,-1,1", "ba856d1cee7f532b3815e43b1f3fd05ffb960b3266d99a94c3beb08e8207a936"),
    ("mahler --variant conjugate -1,-1,1", "77fa919c7f53d76a4d324e209f1f6eed9edd6461b86698f193118ba7dd34a1ec"),
    ("bound -1,-1,1", "b0c0b6819ec6362f3ac8f0803ad60efad50119e8854c140398d0b68f01db9a59"),
    ("mahler --variant plain 1,0,2,0,1", "f8c22370bdacdb44e37797a5479f87a4e278d4c5c28a12e2eefd50b5b9be82c7"),
    ("mahler --variant half_scaled 1,0,2,0,1", "2cff6a0b6aab6303221faf89280956992d7b7272a000637d9c576e85cd44d600"),
    ("mahler --variant double_scaled 1,0,2,0,1", "bb2d8cdb5f2195f3e29682b9cc658818016cc79d5ea0bba0d3fb201c55e5817b"),
    ("mahler --variant conjugate 1,0,2,0,1", "be6458fd1c3626149d95225a5a5c8ec1c55948bb2d4e465bed8af4f6da99c0e2"),
    ("bound 1,0,2,0,1", "d05cfa9bf14b90c76f30ccea1fb64f88515f79374f6181f1a88461622653c296"),
    ("mahler --variant plain 2,-3,1", "696454a183a8a034fc29fa0a8d9e5b516870d05f4e18fc041654f618252536cc"),
    ("mahler --variant half_scaled 2,-3,1", "0f3db9915c6c5cd7f0e634e7446dcefc3cb7ddd0a16fc8d30f34f0fd3af00351"),
    ("mahler --variant double_scaled 2,-3,1", "66822bbd45c190e5c2c1d221ccc7af78a704e66eeb5282512c575209221aed47"),
    ("mahler --variant conjugate 2,-3,1", "159b3eff215d56b81b52b791e3c6d15dbaaeadea6115433a17d2598dd6c4fa01"),
    ("bound 2,-3,1", "d6f9f99fba94b88695b3d7997ee98de97a7a365eadf969c3459e005e7f04320f"),
    ("mahler --variant plain 1,3,-4,0,2,-1,5", "dcb37911b1fae77f6d1f3a4cde1e1eaa4d947c986fdce56b2c35dc5843c16abf"),
    ("mahler --variant half_scaled 1,3,-4,0,2,-1,5", "83ec7d9f5a07889e5973e81aa3da8ec994696bc8ebc2e739074bee2b0318bc2f"),
    ("mahler --variant double_scaled 1,3,-4,0,2,-1,5", "6c0031c5407ab2434b77033204de74b389ffb1e803ada6d525084426f586956e"),
    ("mahler --variant conjugate 1,3,-4,0,2,-1,5", "6b60edc4f24d69c6bf02a6b75d2ac7e63f60a7f5db264cbb6ac1b35e4594c6cc"),
    ("bound 1,3,-4,0,2,-1,5", "07a5f0a271e9a9148c53516bdf991564a7676217d289e835b67d1fc4df87d1b9"),
    ("mahler --variant plain -2,1", "cf944c1eb7fa952d3a85e7b1bab7a1cdc2ead70f1b551fc7fffe08436b988045"),
    ("mahler --variant half_scaled -2,1", "26ee4e20a90a153281fee412b3a5e9ef34b67f495fea23ac3c3f9e259c8a488c"),
    ("mahler --variant double_scaled -2,1", "b4cbd12826eff032f77e6d6630bad489add38c151338b715c84b3269eded26d4"),
    ("mahler --variant conjugate -2,1", "7b2b99431fa5246d11bd1c059bcd6747952cf885674a4188b024f02476609d01"),
    ("bound -2,1", "170707077736ee72084ae76522b6c98d1134b572e5f07f4fd18530f9cdb0dd50"),
    ("mahler --variant plain 1,1,1", "b12e2ee41322be09c03f4431c931963399f1467c8d1c08be9d36b86fcc90fca7"),
    ("mahler --variant half_scaled 1,1,1", "f423643051a935c82dc986a13ad6ae4b040f2f01ae96ebc0eba1d607447f5c50"),
    ("mahler --variant double_scaled 1,1,1", "c560345a6497fdd55c0c9189825ccc03aeff9b07ee5f920d5cdd1b03c3a9831f"),
    ("mahler --variant conjugate 1,1,1", "efae43b542a9d721fa1ae465361d80674847bb0695549a9179b5a1df7f3df2bc"),
    ("bound 1,1,1", "1cf11ebdc2965e3ca7568e3cbe77bb885aa4cb08cf63f9148eef7de8d3ae952f"),
    ("witness --m 7 --seed 3 3,-2,-9,-3,9", "f0a3b80688bc302ce930b225a2fbe9dd38fda58bcc1572f607831c524c400462"),
    ("witness --m 5 --seed 11 -1,-1,1", "51cda25167e3b7d635dc9382bc66c9cf1cd3e955b1ce55e37a67c39ca42c4fca"),
    ("witness --m 9 --seed 2 1,3,-4,0,2,-1,5", "54bb752b6e6fbbc7dd846df1eced018803c227650a7175bef5352eb7d31f6552"),
    ("witness --m 4 --seed 5 -2,1", "c09058407a28303d8773b196633037cd3f7d6af54540e95fb9118a94ed2f87a8"),
    ("witness --m 8 --seed 1 1,0,2,0,1", "f5f552ec69bcdd05ca60e587c2baaeba4c8febd27dcd66478dfc7c71d067ad59"),
    ("trench --autocorrelate --n 20 -1,-1,1", "e298d6b2871b4eadf17217c4a2b3e340f8c2375d93cd2bc429eff3ebc8d62da1"),
    ("trench --autocorrelate --n 60 -1,-1,1", "3904c4a6907615df9bfc80e2fff58d1347ae6dcb08d92df9e357c89eb17c36ce"),
    ("trench --autocorrelate --n 20 3,-2,-9,-3,9", "2a2929ec348f4663cec92bf6ca577b84dab7f8dee19b474997dccdc95a551c53"),
    ("trench --autocorrelate --n 60 3,-2,-9,-3,9", "e4ded588cd45b7849b612f5cb20d13e8fe3d411c67db5d85176e275ed8ec307b"),
    ("trench --autocorrelate --n 20 1,1,1", "e3bb459f83642c6e6dfb6d446b3adc05c6271b4a015f7207ef094674195fa436"),
    ("trench --autocorrelate --n 60 1,1,1", "9d55caa2c1aaa5d138ba2577c4c0473b941e936619d8e199a286c43e7ba69e2d"),
    ("trench --autocorrelate --n 20 1,0,1", "4e527031c42075933fd0219f11884a68eb33d6e5acd8d33329a88c509eaef5fe"),
    ("trench --autocorrelate --n 60 1,0,1", "6ec4e7b14cdf4e6b5d75c1979aaa69bd2a6590050c4d14a128748f475a9745de"),
    ("trench --autocorrelate --n 20 1,2,-1,3", "5c44cad4cb68ec311d932a5486ed0668a3960c2f5d3baee18f9e6ab2922315e7"),
    ("trench --autocorrelate --n 60 1,2,-1,3", "2e73af97607c0f9327052500decf778326a9de191c993f3a3f82f3bf0d64d1fc"),
    ("trench --autocorrelate --n 20 -2,1", "3d1e8ee3870d8400b68c2f75356302701b6ef29502a6fd6ba298df5445f77517"),
    ("trench --autocorrelate --n 60 -2,1", "ce611b9773e32c7c046fae4f52980b93c6289f7e13eae9033abda8fdf7523e12"),
    ("trench --autocorrelate --n 20 6,-5,1", "f7023afbed68047f479c7adf72ed46cf3f20193591ea87a8a931582f80319819"),
    ("trench --autocorrelate --n 60 6,-5,1", "c4311d5b34c28d30800825821d6274bc56ec26becd95733b41f4078d104f9b72"),
    ("trench --autocorrelate --n 20 2,-3,1", "fcf9ef66277883e31554902170def5e3b58959517d68992ccc13efdd840cc67d"),
    ("trench --autocorrelate --n 60 2,-3,1", "f30cb63fcd15b228814be070726061367f2e69632805545c418bf7c89f56ed6f"),
    ("trench --autocorrelate --n 20 -6,1,1", "cf40ed506b421c68fded443a7b0d9d67b141ceefc01e2bd89ce006c9af271c35"),
    ("trench --autocorrelate --n 60 -6,1,1", "29017fc4800b37f1fe98ee396d93733f247943d172fba39cb325f9fe1094738f"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_digest(capsys, command, digest):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
