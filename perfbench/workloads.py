"""The benchmark's workloads: which moorev1 command lines one round runs.

An op is a moorev1 argument list without `--out`; the harness appends a
fresh output directory for the cold workloads and the pre-filled one for
`replay_cached`.  `--workers` and `--config` are never passed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

Op = Tuple[str, ...]

_T128 = ("--t-max", "128")
_EXT_BOX = ("--s-max", "8", "--t-max", "16")


@dataclass(frozen=True)
class Workload:
    ops: Tuple[Op, ...]
    # True: every op replays a cache filled once per run, before timing
    cached: bool = False


# Ten default-window ops; replay_cached serves all of them from the cache.
DEFAULT_MIX: Tuple[Op, ...] = (
    ("verify",),
    ("decompose", "--format", "tsv"),
    ("mahowald",),
    ("ext", "--spectrum", "M") + _EXT_BOX,
    ("page", "--spectrum", "EndM", "--page", "4"),
    ("page", "--spectrum", "M", "--page", "4", "--format", "tsv"),
    ("page", "--spectrum", "S", "--page", "2"),
    ("chart", "page", "--spectrum", "M", "--page", "2", "--format", "svg"),
    ("chart", "decomposition", "--format", "svg"),
    ("chart", "page", "--spectrum", "EndM", "--page", "3", "--format", "txt"),
)

WORKLOADS = {
    "verify_default": Workload(ops=(("verify",),)),
    "artifacts_t128": Workload(
        ops=(
            ("page", "--spectrum", "EndM", "--page", "4") + _T128,
            ("decompose", "--format", "tsv") + _T128,
            ("chart", "page", "--spectrum", "M", "--page", "2", "--format", "svg") + _T128,
            ("mahowald",) + _T128,
            ("chart", "decomposition", "--format", "svg") + _T128,
        )
    ),
    "ext_tables": Workload(
        ops=tuple(
            ("ext", "--spectrum", spectrum) + _EXT_BOX + ("--format", fmt)
            for spectrum in ("S", "M", "EndM")
            for fmt in ("json", "tsv")
        )
    ),
    "replay_cached": Workload(ops=DEFAULT_MIX, cached=True),
}


def op_key(op: Op) -> str:
    return " ".join(op)


def round_ops(workload: Workload, rng: random.Random) -> List[Op]:
    """The ops of one round: each op once.  The seed only permutes them:
    every output is independent of order, so the reference digests hold
    for every seed."""
    ops = list(workload.ops)
    rng.shuffle(ops)
    return ops
