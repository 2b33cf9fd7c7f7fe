"""Pinned stdout bytes of fast CLI invocations.

Each invocation runs in-process and its stdout must hash to the sha256
pinned here.  A change to the prime listing, the sieves or the scans that
alters any output byte, or makes the bytes depend on ``--workers``, fails
here first.
"""

import hashlib
import io

import pytest

from grimmsmooth.cli import run

DIGESTS = [
    (["verify-grimm", "--limit", "1000000", "--workers", "1"],
     "230c6d1cc1dde4ccba9e173d44acff5f4e1bc60f71eacf2371ececdeb80ce4d7"),
    (["verify-grimm", "--limit", "1000000", "--workers", "2"],
     "230c6d1cc1dde4ccba9e173d44acff5f4e1bc60f71eacf2371ececdeb80ce4d7"),
    # the row 10000000,664577,0,153,4652353
    (["verify-grimm", "--limit", "10000000", "--workers", "2"],
     "0a7ec208f4b4b76065e38133fda830d7ad097d93b029e21043b31d1849fbee29"),
    (["verify-grimm", "--limit", "300000", "--emit-runs"],
     "b18d7c0ab163947a67da1e24141056831de7bddfc7d0ec37a47a10356e3fe6b6"),
    (["gap-scan", "--limit", "1000000"],
     "42fddb69751d473c890335ec7af5272ea0f3a2b11bb46c1368670dc0f6d2ad39"),
    (["dusart-check", "--limit", "1000000"],
     "7671479d7ec0d768aea3521484429982ef1791caed170c059fd6831f5f3d03c9"),
    (["g", "--n", "1000000"],
     "021d17dfd04593546e92325cf1922f25b61ca51ea392002abef2d4619a81a209"),
    (["g1", "--n", "1000000"],
     "cf3f6fd75d031a53836713294fc7056a77fdba62153610a436f4c1f8435d9323"),
    (["represent", "--n", "1000000", "--k", "400"],
     "3c11b4d7b39a16de94ea4afc4d958c4c3f7c9f6556d01919be20699405b281a9"),
    (["psi", "--x", "2000000", "--y", "1000"],
     "4f0295bda56883ee855477938e226eee731ba2d46d48a361d69c84293177813c"),
    # floor(y) >= isqrt(x), where the root is a leaf: Psi = 8532550 and
    # 3265474310
    (["psi", "--x", "20000000", "--y", "10000"],
     "de71872e708e9f166537a07e34ef0cf85c2b5723f9ac8fe50ab5b0c02e303cc6"),
    (["psi", "--x", "10000000000", "--y", "100000"],
     "7a32e9e425e7675a0656ec60d4e950d910b35f8ffa79508266218d26e3930d5e"),
    # Psi = 59244184 and 8800084, as the sieve of (0, x] printed them
    (["psi", "--x", "1000000000", "--y", "1000"],
     "30328ff97fbd904759ed9eaa853d6fb0165e24dc9aaaa7fda15415e7f4a99b7d"),
    (["psi", "--x", "10000000000", "--y", "100"],
     "ff849be30b59d273a8803a264f641a288144f324b41afdb319e171a8237adfce"),
    (["ram-sum", "--x", "100000000", "--alpha", "0.48"],
     "c8981735bd6577a982b8836dff95067ed7708f50c885df66fa8862275d7bdebe"),
    (["exceptional-scan", "--x-max", "400000", "--eps", "0.3", "--stride", "4"],
     "f97e6cb507d47378cbbadf38c67d21ac0dd41066dbebcd0bdc4c2d0e4d3a58af"),
    # a window sieved with the primes to y = 600 near 1e12: one smooth value
    # (1000000000212), against pi(600) = 109
    (["psi-window", "--x", "1000000000000", "--z", "600", "--y", "600"],
     "81546a357e481423635f3c7c310d2390a05feda074abf85dac972e27a1597696"),
    # y > x + z: every value of the window is smooth, and pi_y = pi(1e6)
    (["psi-window", "--x", "100", "--z", "50", "--y", "1000000"],
     "d7f6ab082aec8199bfcfd58813128dd443ad7928a7ef2380be167d7a514d9dee"),
    # y < 1: the unit alone is smooth
    (["psi-window", "--x", "0", "--z", "5", "--y", "0.5"],
     "7a4408e2985019a8e8149d6599ee3386b392e92ca019a66386c385f46849b75d"),
]


@pytest.mark.parametrize("argv,digest", DIGESTS, ids=[" ".join(a) for a, _ in DIGESTS])
def test_stdout_digest(argv, digest):
    buf = io.StringIO()
    assert run(argv + ["--manifest", "-"], stdout=buf) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
