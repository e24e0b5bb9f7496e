"""Digests of the replies to a fixed corpus of CLI requests.

    python tests/replies.py [--src DIR] > digests.txt
    python tests/replies.py --diff A B

The first form prints one line ``name sha256`` per request, the digest of
its exit code and reply text.  ``--src`` picks the ``src`` directory whose
``meetjoin`` answers (by default this checkout's), so two versions of the
program can be compared on one interpreter.  ``--diff`` lists the names
whose digests differ between two such files, or that only one of them has,
and exits 1 when there is any.

The corpus:
- every request of the seed-0 and seed-7 pools of each bench workload
  (``bench/workloads.py``, read without writing bytecode there), and each
  ``build`` of them once more with ``--format csv``;
- float ``check-pd`` on ``random.Random(0).sample(range(1, 3000), n)``
  with power-gcd at alpha 1.5, for n = 200 and 300, and exact ``check-pd``
  on the n = 200, 300 and 500 sets at alpha 1;
- ``check-pd`` where C3.4/C3.6 decides over a closure that adds members,
  and the det comes from the complementary minor or, where its gate
  refuses, from a direct elimination: :data:`DIVISOR_SAMPLES` of the
  divisors of 720720, and the first 7 primes under reciprocal-power-lcm,
  whose join closure adds 120 members to 7;
- ``check-pd`` on the any-matrix posets of :data:`ANY_MATRIX` and
  :data:`NON_FINITE`;
- ``closure`` and ``classify`` on the first 13 primes with
  reciprocal-power-lcm under both ambients: the join side on an
  8191-element closure; and ``check-pd`` there under the canonical
  ambient, where the masses over the whole up-set take the prime-wise
  route (about 10 s by the walk);
- ``check-pd`` on 2, 3 with power-gcd at ``--alpha 1e-400``, a nonzero
  exponent whose float is 0.

Float replies may differ between Python versions, so compare digests made
by one interpreter.  A run takes about 10 s on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 7)
TARGET_SIZES = (200, 300)
# Exact check-pd: C3.4 decides, det through the complementary minor.
EXACT_SIZES = (200, 300, 500)
PRIMES = "2,3,5,7,11,13,17,19,23,29,31,37,41"
# (name, sample size, family): seed-0 samples of the divisors of 720720.
# The 200 under reciprocal-power-lcm take the complementary minor on the
# join side; the work estimate refuses it for the 120 under power-gcd.
DIVISOR_SAMPLES = (("lcm-200", 200, "reciprocal-power-lcm"),
                   ("gcd-120", 120, "power-gcd"))

# Positive definite, with a last LDL^T pivot near 1.6e-15: elimination
# with partial pivoting gave it the determinant -4.89e-17.
ANY_MATRIX = (
    (1.5213581947319819, -0.9843645201954753, 0.03758026491073128,
     -1.0827627430753872, -0.21597806593441712),
    (-0.9843645201954753, 2.1985448972074213, -0.5257626148678745,
     -0.08186597507859211, 0.3860848069000117),
    (0.03758026491073128, -0.5257626148678745, 0.6580010495900961,
     0.2257198701459122, -0.6044376876377898),
    (-1.0827627430753872, -0.08186597507859211, 0.2257198701459122,
     1.1708061720304666, 0.11443251913377686),
    (-0.21597806593441712, 0.3860848069000117, -0.6044376876377898,
     0.11443251913377686, 1.5097369938206653),
)

# Finite entries whose LDL^T pivot at column 2 is 1 - (1e300 / 1e-300) *
# 1e300 = -inf: the reply is a DeskScaleError, not a verdict read off it.
NON_FINITE = ((1.0, 0.0, 0.0), (0.0, 1e-300, 1e300), (0.0, 1e300, 1.0))


def write_any_matrix(rows, directory, name="any-matrix") -> tuple[str, str]:
    """Write a poset file and a values file whose meet matrix on the set
    x0..x(n-1) is ``rows``; return their paths.

    The poset has one element z_ij below exactly x_i and x_j for each pair
    i < j, so meet(x_i, x_j) = z_ij, and f(x_i) = rows[i][i], f(z_ij) =
    rows[i][j].  For n >= 3 two z's have no meet, so the set has no
    closure and only the oracle decides.  The files are ``name.json`` and
    ``name-values.json``."""
    n = len(rows)
    labels = [f"x{i}" for i in range(n)]
    values = {f"x{i}": rows[i][i] for i in range(n)}
    relation = []
    for i, j in itertools.combinations(range(n), 2):
        labels.append(f"z{i}_{j}")
        values[labels[-1]] = rows[i][j]
        relation += [[len(labels), i + 1], [len(labels), j + 1]]
    poset_path = Path(directory) / f"{name}.json"
    values_path = Path(directory) / f"{name}-values.json"
    poset_path.write_text(json.dumps({"n": len(labels), "relation": relation,
                                      "labels": labels, "set": labels[:n]}))
    values_path.write_text(json.dumps(values))
    return str(poset_path), str(values_path)


def _corpus(RunConfig):
    """Yield ``(name, RunConfig)`` for each request, in a fixed order.
    Poset files are written to the working directory."""
    from workloads import WORKLOADS

    for workload, pool in WORKLOADS.items():
        for seed in SEEDS:
            for k, request in enumerate(pool(random.Random(seed))):
                name = f"{workload}/seed{seed}/{k:03d}/{request.command}"
                yield name, RunConfig(**request.config_kwargs())
                if request.command == "build":
                    yield name + ".csv", RunConfig(**request.config_kwargs(), fmt="csv")
    for n in TARGET_SIZES:
        members = random.Random(0).sample(range(1, 3000), n)
        yield f"target/float-check-pd-{n}", RunConfig(
            command="check-pd", set_text=",".join(map(str, members)),
            family="power-gcd", alpha="1.5")
    for n in EXACT_SIZES:
        members = random.Random(0).sample(range(1, 3000), n)
        yield f"target/exact-check-pd-{n}", RunConfig(
            command="check-pd", set_text=",".join(map(str, members)),
            family="power-gcd")
    divisors = [d for d in range(1, 720721) if 720720 % d == 0]
    for name, size, family in DIVISOR_SAMPLES:
        members = sorted(random.Random(0).sample(divisors, size))
        yield f"divisors720720/{name}/check-pd", RunConfig(
            command="check-pd", set_text=",".join(map(str, members)),
            family=family)
    yield "primes7/check-pd", RunConfig(
        command="check-pd", set_text=",".join(PRIMES.split(",")[:7]),
        family="reciprocal-power-lcm")
    for name, rows in (("any-matrix", ANY_MATRIX), ("non-finite", NON_FINITE)):
        poset_path, values_path = write_any_matrix(rows, "", name)
        yield f"{name}/check-pd", RunConfig(
            command="check-pd", poset_path=poset_path, values_path=values_path)
    for ambient in ("closure", "canonical"):
        for command in ("closure", "classify"):
            yield f"primes13/{ambient}/{command}", RunConfig(
                command=command, set_text=PRIMES, family="reciprocal-power-lcm",
                ambient=ambient)
    yield "primes13/canonical/check-pd", RunConfig(
        command="check-pd", set_text=PRIMES, family="reciprocal-power-lcm",
        ambient="canonical")
    yield "alpha-1e-400/check-pd", RunConfig(
        command="check-pd", set_text="2,3", family="power-gcd", alpha="1e-400")


def digests(src: Path):
    """Yield ``(name, sha256)`` for each request of the corpus, answered by
    the ``meetjoin`` under ``src``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    from meetjoin.cli import RunConfig, run

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # the config echo names poset files as given
        try:
            for name, config in _corpus(RunConfig):
                code, text = run(config)
                yield name, hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
        finally:
            os.chdir(home)


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return dict(line.split() for line in fh if line.strip())


def diff(a: str, b: str) -> list[str]:
    """The names whose digests differ in the files ``a`` and ``b``, or that
    only one of them lists, in the order of ``a`` and then ``b``."""
    left, right = _read(a), _read(b)
    names = [*left, *(name for name in right if name not in left)]
    return [name for name in names if left.get(name) != right.get(name)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory to import meetjoin from")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="list the names whose digests differ")
    args = parser.parse_args()
    if args.diff:
        changed = diff(*args.diff)
        print("\n".join(changed) if changed else "no reply differs")
        return 1 if changed else 0
    for name, digest in digests(args.src.resolve()):
        print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
