"""Byte-exact CLI outputs, pinned by the sha256 of stdout.

Each digest was recorded from ``cli.main(argv)`` before the int-bitset and
single-rate-kernel refactor (the n11, n2 and asymptotic beta2 sweeps before
the merged sweep loop); any change to a printed rate, bound, sweep row
or verification verdict changes it.  The three beta1 sweep jobs are the
benchmark's figure jobs and carry the same digests as ``SWEEP_JOBS`` in
``perfbench/workloads.py``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wiretap_helper.cli import main

_SWEEP_FIGURE = ("sweep --axis beta1 --start 0.05 --stop 2.5 --step 0.001 "
                 "--beta2 1 --log-snr1 40 --out - ")
_GAUSSIAN = "gaussian --log-snr1 40 --const-c 1/2 "

GOLDEN = {
    "rates --n11 10 --n21 8 --n2 10":
        "78c1fa67fc0fcae25c52dbc52ac06a7332b3adc7645dce852ca7a21d0f478023",
    "rates --n11 0 --n21 0 --n2 0":
        "e26a8eed735fed8261d3f2f4ac644e68d4197dd4e55172d63c09ecbd7fd1281d",
    "rates --n11 5 --n21 5 --n2 3":
        "79742a995a6b280392599ca9148892ad86f9a7ec2bfd44bfa7cf4e7eccb58b8c",
    "rates --n11 12 --n21 3 --n2 7":
        "8b2c75a52048cdb628c22a482d1d4399f8910252977859f4e1da023744ea46c2",
    "rates --n11 9 --n21 20 --n2 4":
        "af7f909a6f295484a99f9246f3b325a7c50fabee180fe3d4fcd776dc044d6ec5",
    "rates --n11 17 --n21 13 --n2 9":
        "9fecfa06abc74e3a36c7de9f05ba4b1a38576508ac0189bf66efa8cfc539cf50",
    "rates --n11 40 --n21 31 --n2 22":
        "12e94c72d21cec1be2db70ed6c102f54ab43abc02bf6dd46ecac831ac8d60a69",
    _GAUSSIAN + "--beta1 0.5 --beta2 1":
        "77f3de3badb6877f013d203c96cfa4b3a529f622eaef41bc78f6ba6b0cf73c2e",
    _GAUSSIAN + "--beta1 0.75 --beta2 1":
        "b31c8eae59a59e0ce100df5549a6278db1cb9a58156d1962ca839d922cf60bad",
    _GAUSSIAN + "--beta1 0.9 --beta2 0.5":
        "527ae7e2964446a21fa59af7b232990c80c5311631101d87a4bd6da4fe4ce268",
    _GAUSSIAN + "--beta1 1 --beta2 1":
        "c279d9589c597119c7444c2c9cba7ebf3b1979bfdc3110f0da8618d1fb2a3ba8",
    _GAUSSIAN + "--beta1 1.5 --beta2 0.3":
        "c8d28d8c50f4f15f010acba38c9ce08a4fe88384daa3041db02f67ce85093eda",
    _GAUSSIAN + "--beta1 2.2 --beta2 1":
        "4413510f7001cbd89e9b3f4546c7c12faf6fcd647a8f5cfd159366fdd760416d",
    _GAUSSIAN + "--beta1 0.999 --beta2 1":
        "cdcdad82bf3249783f537fc16b26036a6268ab29be16e4a7c7644231a2e3ee03",
    _GAUSSIAN + "--beta1 0.7 --beta2 1.3":
        "65f3055adb138f3212bcacf5d0101d2cbb553b4b6ab0a8e169eaaff4bfb3bfcd",
    _SWEEP_FIGURE + "--format csv":
        "99dd8df51fabb87bcafea6b97d2c03cb6fa3f01ecefb09284adb5d78b7e7ccb0",
    _SWEEP_FIGURE + "--format svg":
        "fefbffe3865f5711f9e382eaf204cbc34e468aff913390def379cde79d215ecc",
    _SWEEP_FIGURE + "--format csv --asymptotic":
        "49a3d131b44a897fc37dd9ad74044cc681e0c805aff3daf14b8610b0e0481850",
    "sweep --axis beta2 --start 0 --stop 2 --step 0.01 --beta1 0.8 --log-snr1 33":
        "714b409ef674c4a38142b3532be8f092d9d90eed2b3c8236cc9f1c1f26ce6c39",
    "sweep --axis n21 --start 0 --stop 40 --step 1 --n11 20 --n2 15":
        "6bfc711bf04e45ef4493a948cb91c367925a26c99e70a7b1686457512af81583",
    # the n11 = 0 row has a zero normalizer
    "sweep --axis n11 --start 0 --stop 24 --step 1 --n21 10 --n2 12":
        "5b14faaf534cdd622cb0005b01673623533da5dd19d0fe5f624894845ceeec9e",
    "sweep --axis n2 --start 0 --stop 30 --step 1 --n11 17 --n21 13":
        "27d47c9f39e9217a0ee65da5ccdf8a9a96591023458be1c3245a6311dacf4c8c",
    "sweep --axis beta2 --start 0 --stop 2 --step 0.05 --beta1 0.7 --log-snr1 33 "
    "--const-c 1/2 --asymptotic":
        "896f12817cec6f8c0c13eb0efd3c325042d5d5e03656a4de41c6fac7ca8de1ef",
    # non-decimal log_snr1 and c != 0 on a non-asymptotic Gaussian sweep
    "sweep --axis beta2 --start 0 --stop 3 --step 1/7 --beta1 2/3 --log-snr1 13/3 "
    "--const-c 1/3":
        "90cf1bf8633161e8cbd3389a9f49864f8c29d3070daf808adf99017a424c0a60",
    "sweep --axis beta1 --start 1/9 --stop 7/3 --step 1/9 --beta2 5/4 --log-snr1 29/7 "
    "--const-c 2/9 --format svg":
        "dd54defbfe2c84bd94bc15f729d7406aa708bfea8cf061fa33b6ddedd6e128de",
    # long runs of rows that share a gain triple, with rational L and c;
    # recorded on the 0.12.0 code, which built every cell of every row
    "sweep --axis beta1 --start 0 --stop 3 --step 1/300 --beta2 2/3 --log-snr1 17/2 "
    "--const-c 3/4 --asymptotic":
        "1a5021f5f9f315023e45325c64c85d4d28aa0d4c379a31eb554566cb46a49924",
    "sweep --axis beta2 --start 0 --stop 2 --step 1/100 --beta1 0.99 --log-snr1 40 "
    "--format svg":
        "442033663343e89d1f35a3a10a3cc9152094ca703c277467e0c4dcca4d33cbd9",
    "gaussian --log-snr1 13/3 --beta1 5/7 --beta2 1/3 --const-c 1/3":
        "464fb125b188243dcb6e690bca817076b2487c3fe6b5f092dd6f8bfd711e778c",
    # odd-level sums recorded on the 0.13.0 code, which computed each level
    # edge three times: a partial top level at rational L, and 100 nonzero levels
    "gaussian --log-snr1 100/3 --beta1 5/7 --beta2 2/3":
        "c08f3b1b82c015f1fa9ef88c4904e252341278c4a12257f958ff637da4c5b3b1",
    "gaussian --log-snr1 4000 --beta1 0.99 --beta2 1":
        "202fe88f881459cddd8629add239b9f377df9f54e534cca6b219f20ac0fc7abd",
    "verify --max-q 12 --seed 3":
        "9016d53237514519cd6ee072a4bd2860a0d7ceaaed69cbb4a558c469093e48a0",
    "verify --max-q 10 --oracle --seed 5":
        "05a6b04706c92100cecdabfadd03d2a9c35278885afb9dcd0f60b54da5762f63",
    # the full grid: 67,240 built schemes and 766 oracle gaps, recorded before
    # leakage and decodability became one elimination pass each
    "verify --max-q 40 --oracle --seed 0":
        "656f3ccd9dc89eb788fb2984fc2f5de5b38a3d2d1aebb63dc2dd504196d3c4e6",
    # the grid at the cap: 274,625 instances and 3,391 oracle gaps, recorded
    # with the cap lifted before the one-loop scheme compile
    "verify --max-q 64 --oracle --seed 0":
        "24a54e173efe1ede578a60dbb54dc9e35f4bc8bfb09a829e5beaa7df2caf06e1",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_is_byte_identical(command, capsys, monkeypatch):
    monkeypatch.delenv("WTH_MAX_Q", raising=False)
    monkeypatch.delenv("WTH_DEFAULT_LOG_SNR1", raising=False)
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[command]


def test_module_entry_point():
    # ``python -m wiretap_helper.cli`` runs ``entry``, as the ``wth`` script does
    env = {k: v for k, v in os.environ.items() if not k.startswith("WTH_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))

    def wth(*argv):
        return subprocess.run([sys.executable, "-m", "wiretap_helper.cli", *argv],
                              capture_output=True, env=env, timeout=60)

    command = "rates --n11 10 --n21 8 --n2 10"
    done = wth(*command.split())
    assert done.returncode == 0
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN[command]
    stray = wth("sweep", "--axis", "n11", "--start", "1", "--stop", "2", "--step", "1",
                "--n21", "2", "--n2", "3", "--asymptotic")
    assert stray.returncode == 2
    assert b"--asymptotic" in stray.stderr
