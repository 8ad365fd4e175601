"""Workload definitions for the twirl benchmark.

Each workload is one `twirl` CLI invocation shape.  The residue configs are
fixed, so their pinned SHA-256 holds for every seed; the seed picks only the
odd-p7 alphas and the probe operands.  See README.md for why each workload
exists and which layer it stresses.
"""

from __future__ import annotations

import configparser
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # twirl subcommand
    config: str             # INI text handed to --config
    sha256: str             # pinned digest of the exact output bytes
    warm_check: bool        # rerun warm in the same process, require same bytes
    seeded_alpha: bool      # draw one `--alpha` per job from the seed

    def job_args(self, rng: random.Random) -> list[str]:
        """CLI arguments of one job, minus --config and --out.  The alpha
        goes in `--alpha=` form because argparse reads a leading `-` as a
        flag."""
        args = [self.command]
        if self.seeded_alpha:
            cp = configparser.ConfigParser()
            cp.read_string(self.config)
            args.append("--alpha=" + seeded_alpha(rng, int(cp["field"]["p"])))
        return args


def seeded_alpha(rng: random.Random, p: int) -> str:
    """alpha = -1 + pi*c1 + pi^2*c2 with c1 a unit digit: a regular torus
    element in the alpha = -1 mod p stratum, where the psik job walks the
    same strata and one K-average for every draw."""
    c1 = rng.randrange(1, p)
    c2 = rng.randrange(0, p)
    return f"-1+pi*{c1}+pi^2*{c2}"


# Uniformizers are pinned: x^2 - 2 at p = 2 and x - 5, x - 7 at odd p.
# x^2 + 2 and x^2 + 2x - 2 fail at this p = 2 config (see README.md).

EVEN_P2 = """\
[field]
p = 2
e = 2
eisenstein = -2,0,1
precision = 30

[pipeline]
regime = even
k_max = 8
gamma_depth = 8
unit_depth = 3
"""

ODD_P5 = """\
[field]
p = 5
e = 1
eisenstein = -5,1
precision = 18

[pipeline]
regime = odd
k_max = 8
gamma_depth = 5
unit_depth = 2
"""

ODD_P7 = """\
[field]
p = 7
e = 1
eisenstein = -7,1
precision = 18

[pipeline]
regime = odd
k_max = 8
"""

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="even-p2-residue",
            command="residue",
            config=EVEN_P2,
            sha256="2460e87e2b19270383a750c8a15f8e4d"
                   "d046d98018099059c5d2752c796ca61a",
            warm_check=True,
            seeded_alpha=False,
        ),
        Workload(
            name="odd-p5-residue",
            command="residue",
            config=ODD_P5,
            sha256="8d3e15abe08c20d82878f6391e7b7cc9"
                   "b4bfafbff8c31acf19c11e3d13da484b",
            warm_check=True,
            seeded_alpha=False,
        ),
        Workload(
            name="odd-p7-psik",
            command="psik",
            config=ODD_P7,
            sha256="79a4dc9d0e45963c3988ca206081ed02"
                   "1a04862d50db0cac9a3dba6eee6a2b81",
            warm_check=False,
            seeded_alpha=True,
        ),
    )
}
