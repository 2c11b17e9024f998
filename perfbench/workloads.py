"""The benchmark's workloads and the scenes a seed picks for each.

Every scene is a member of the ``synthetic.corpus_specs`` family, rendered
at the workload's size.  The seed only chooses members; the program sees
nothing but the generated scene directories.

* ``corpus-96x72x6``: 20 small scenes, members 20*b .. 20*b+19 with
  b = seed mod 100, so seed 0 is the 20-scene acceptance corpus and seeds
  that differ mod 100 share no scene.  Many short jobs: per-call overhead,
  the per-frame attention loop, scene loading, PGM writes and eval weigh in.
* ``dense-320x240x8``: one scene like member 0, the 320x240x8 reference
  scene: about 103k lifted points and as much purification pair work and
  peak memory (``members.json``), full pipeline.  Purification does
  nearly all the work and sets peak memory.
* ``nopurify-320x240x8``: four scenes of about 103k lifted points each,
  with purification off (``--disable-purification``).  It bypasses
  purification; cross-view refinement and the PLY write and read carry
  the time.

The 320x240x8 workloads draw from fixed member lists so that a seed
changes the scenes but not the amount of work; ``select_members.py``
derives the lists and explains the criterion.  Seeds that differ modulo a
list's length pick disjoint scenes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MEMBERS = Path(__file__).resolve().parent / "members.json"
CORPUS_BLOCKS = 100


def _pool(key: str) -> list[int]:
    return json.loads(MEMBERS.read_text(encoding="utf-8"))[key]


def _corpus_block(seed: int) -> list[int]:
    block = seed % CORPUS_BLOCKS
    return list(range(20 * block, 20 * block + 20))


def _dense_member(seed: int) -> list[int]:
    pool = _pool("dense_members")
    return [pool[seed % len(pool)]]


def _band_quartet(seed: int) -> list[int]:
    pool = _pool("band_members")
    start = 4 * (seed % (len(pool) // 4))
    return pool[start:start + 4]


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    width: int
    height: int
    flags: tuple[str, ...]          # extra `dynmask mask` flags
    members: Callable[[int], list[int]]  # seed -> family member indices

    def specs(self, synthetic, seed: int) -> list:
        """The scene specs for `seed`, in member order."""
        members = self.members(seed)
        family = synthetic.corpus_specs(max(members) + 1, frames=self.frames,
                                        width=self.width, height=self.height)
        return [family[k] for k in members]


WORKLOADS = {w.name: w for w in (
    Workload("corpus-96x72x6", 6, 96, 72, (), _corpus_block),
    Workload("dense-320x240x8", 8, 320, 240, (), _dense_member),
    Workload("nopurify-320x240x8", 8, 320, 240, ("--disable-purification",),
             _band_quartet),
)}
