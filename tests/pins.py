"""The pinned CLI outputs: each invocation's exit code and exact stdout.

A pin is (argv, exit code, expected stdout), with the expected stdout given
as its sha256 or as the name of a file under tests/golden/.  The tier-1
suite checks every pin (tests/test_cli.py), and so does this script, which
needs only the standard library and qgrass:

    PYTHONPATH=src python tests/pins.py

It exits 1, naming each invocation whose exit code or stdout differs, or
whose command line `cli`'s plain reader does not read to the namespace
that argparse reads on the running interpreter.
"""

import contextlib
import hashlib
import io
import pathlib
import shlex
import sys

from qgrass import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

# the sha256 of an empty stdout
EMPTY = hashlib.sha256(b"").hexdigest()

PINS = [
    ("--p 2 --m 3 --q 1 degree", 0,
     "4c82a221b575ce7fe118b2e8cdf0764bf4ef570a3017e80b6d3438af9095f376"),
    ("--p 1 --m 1 --q 0 poset list", 0,
     "30599e1bc5cba3224647d7a7568b9f56dc5c1c1538a7f633114657b97604b42f"),
    # neither --n nor --q: the classical context, n = q = 0
    ("--p 2 --m 2 poset list", 0,
     "e0cb12d01afdf713477f9472dbcd24849890f7525ec1a86b8131acd8ae649178"),
    ("--p 3 --m 4 --q 2 poset rank 235^2", 0,
     "7ee29791fc17e986b97128845622b077fb45e349fdb80523fac9dba879b4ad60"),
    ("--p 3 --m 3 --n 1 --q 3 groebner", 0,
     "539a66d07ecc86f778b2117eb91c148892fc20abcb859a7494957a8df8445a35"),
    ("--p 3 --m 3 --n 1 --q 3 --compact groebner --interval 124^0 356^2", 0,
     "6b0f5558b2fa7871f03f3f002fef2d3e8e6116af54b3912903081fc4963739c0"),
    ("--p 3 --m 3 --n 1 --q 2 groebner", 0,
     "ea3ca1a080778776d22c604453389caaecf8a9287a5679eabb0915a0b4c38204"),
    # the JSON form of groebner, on the full context and on a skew cell
    ("--p 2 --m 2 --n 1 --q 2 --format json groebner", 0,
     "7ab9f4ea4f10c6c56fa7745f8ff309d0b9c8986115a72e86a496661c3fc6ba04"),
    ("--p 3 --m 3 --n 1 --compact --format json groebner --interval 146^1 235^2", 0,
     "fe19b15a610c0536d75f57da1eac2568b430784e3d023bcd1717a80db1ba9c86"),
    ("--p 3 --m 3 --n 1 --q 3 sagbi-check", 0,
     "e89267594303fd91bf387309faf95eddb2e2100e0131efb686d4c1c451dee240"),
    ("--p 3 --m 3 --n 1 --q 2 obvious --rank", 0,
     "55f40dfb971e6e943f03d8485b32de15705853f16ffaaa51f34647f81d2f7c8c"),
    ("--p 3 --m 3 --q 1 obvious --rank", 0,
     "9fedcbb8293051ae42f75286d8f6dfd991f856f60dc5da27a39ecf6a131904e5"),
    ("--p 3 --m 3 --n 1 --q 3 obvious --rank", 0,
     "0650205965624e51e23c8e780ce6cb6e155769036f7d49aeb412cfcd66da24fb"),
    # 980 lifted relations through linalg.rank_of
    ("--p 3 --m 4 --n 1 --q 3 obvious --rank", 0,
     "faa9ed6144cbe3e015704df00f6cc38d42e5d051b1f570301e6149a7d9c23141"),
    ("--p 2 --m 2 --n 1 sagbi-check", 0,
     "8a6af1dbb29d00d40be2f5e0a577da477d976f431fecb75b829e698524644658"),
    # the 175 lifted relations of syzygy.coefficient_relations
    ("--p 3 --m 3 --n 1 --q 2 obvious", 0,
     "caeff51b94b07c6f2bb8c79c7d4a3e82ba5c432f1fbbc3aa72851d5f31ecbfc8"),
    # chi is the one command whose output still runs through polyring.det
    ("--p 3 --m 3 --n 1 chi 156^1", 0,
     "f0b1bb97166114ceb82be9d6ff37ecb1920cc9b1c73ce707c34eabd85df4a5f6"),
    ("--p 3 --m 3 --n 1 psi 456^2", 0,
     "75d882a516442b5a936cf796a6a7e4e414a1923a63299e0ec7803a3ea231069c"),
    ("--p 3 --m 3 --n 1 phi 456^2", 0, "phi_456_2.txt"),
    ("--p 3 --m 4 --n 2 pi 235^2", 0, "pi_235_2_m4.txt"),
    ("--p 3 --m 3 --n 1 schubert 235^2", 0,
     "dd2c49d822bcb5c46fb171842221ceb659548cbace24d4bee62de9108112eda6"),
    ("--p 3 --m 3 --n 1 --format json schubert 456^3 --skew 123^0", 0,
     "da70db89d46cca8a38482ad39b99c40fdbc2c5a50d514f7b549c8a617077049c"),
    ("--p 3 --m 3 --n 1 --compact schubert 235^2 --skew 146^1", 0,
     "0b71a54c6d1081921f3b614cd20e48cab4099551729cbbbc8d10a0976d908e57"),
    ("--p 3 --m 3 --n 1 --compact straighten 156^1 234^2", 0, "straighten_156_1_234_2.txt"),
    ("--p 3 --m 3 --n 1 --compact syzygy w 156^1 234^2", 0,
     "362c96b1e146a77b1d4b759020c31831f27a32acb78c1a1e69a9c2930ffd02e9"),
    # the lifted syzygy is the straightening relation, with q given and at its default
    ("--p 3 --m 3 --n 1 --compact syzygy v 156^1 234^2", 0, "straighten_156_1_234_2.txt"),
    ("--p 3 --m 3 --n 1 --q 3 --compact syzygy v 156^1 234^2", 0,
     "straighten_156_1_234_2.txt"),
] + [
    # comparable rows, then an incomparable pair of equal shifts reversed
    (f"--p 3 --m 3 --n 1 syzygy {kind} {rows}", 1, EMPTY)
    for kind in "wv"
    for rows in ("124^0 123^0", "135^0 124^0", "245^0 136^0")
]


def check(pin):
    """None if the pinned invocation is read by the plain reader as argparse
    reads it, and exits and prints as pinned; else why not."""
    argv, code, expected = pin
    words = shlex.split(argv)
    plain = cli._plain_args(words)
    if plain is None:
        return "the plain reader leaves it to argparse"
    parsed = vars(cli.build_parser().parse_args(words))
    if vars(plain) != parsed:
        return f"the plain reader reads {vars(plain)}, argparse {parsed}"
    out = io.StringIO()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            got_code = cli.run(words, out=out)
    except SystemExit as exc:
        got_code = exc.code
    if got_code != code:
        return f"exit code {got_code}, pinned {code}"
    pinned = expected
    if expected.endswith(".txt"):
        pinned = hashlib.sha256((GOLDEN / expected).read_bytes()).hexdigest()
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    if digest != pinned:
        return f"stdout sha256 {digest}, pinned {expected}"
    return None


if __name__ == "__main__":
    failures = 0
    for pin in PINS:
        reason = check(pin)
        failures += reason is not None
        print(f"qgrass {pin[0]}: {reason or 'ok'}")
    sys.exit(1 if failures else 0)
