"""Generated inputs: the fixed Σ, the read and edit streams, and their answers.

Σ and the multiset of requests each workload times are fixed across
seeds, so every run does the same work; ``--seed`` picks the order of
the reads and of the edits within each block of the edit stream.  Expected answers come from a local
in-process :class:`repro.core.session.Session`, computed before any
timed section, and are compared byte for byte with the served lines.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.attributes import BasisEncoding
from repro.attributes.printer import unparse_abbreviated
from repro.core import commands
from repro.core.session import Session
from repro.workloads import mixed_family, random_element_mask, random_sigma

SCALE = 16                 # mixed_family(16): |N| = 64 basis attributes
SIGMA_SIZE = 200
SIGMA_SEED = 20040614      # Σ is fixed across seeds
POOL_SEED = 1204           # so is the multiset of reads
SESSION = "bench"

HOT_READS = 64
COLD_READS = 1000
EDIT_ROUNDS = 480          # ten blocks of 48 edits
EDIT_CANDIDATES = 48       # extra dependencies the edit stream adds/retracts

#: Read mix: implies 60% (half FD, half MVD), closure 20%, basis 20%.
MIX = (("fd", 0.3), ("mvd", 0.3), ("closure", 0.2), ("basis", 0.2))


def encode_line(message: dict) -> bytes:
    """The wire encoding of one message (compact JSON, UTF-8, newline)."""
    return json.dumps(message, ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8") + b"\n"


def request_line(request_id: int, op: str, params: dict) -> bytes:
    return encode_line({"v": 1, "id": request_id, "op": op,
                        "params": params})


def ok_line(request_id: int, result: dict) -> bytes:
    return encode_line({"v": 1, "id": request_id, "ok": True,
                        "result": result})


@dataclass(frozen=True)
class Problem:
    """The schema, Σ and their display texts shared by every workload."""

    root: object
    encoding: BasisEncoding
    schema: str
    sigma: tuple[str, ...]

    def session(self) -> Session:
        return Session(self.root, self.sigma, encoding=self.encoding)

    def open_params(self) -> dict:
        return {"name": SESSION, "schema": self.schema,
                "dependencies": list(self.sigma)}

    def show(self, mask: int) -> str:
        return unparse_abbreviated(self.encoding.decode(mask), self.root)


def build_problem() -> Problem:
    root = mixed_family(SCALE)
    encoding = BasisEncoding(root)
    rng = random.Random(SIGMA_SEED)
    sigma = random_sigma(rng, encoding, SIGMA_SIZE,
                         lhs_density=2 / encoding.size,
                         rhs_density=4 / encoding.size)
    texts = tuple(dependency.display(root) for dependency in sigma)
    return Problem(root, encoding, str(root), texts)


def _distinct_lhs(rng: random.Random, problem: Problem, count: int,
                  taken: set[int]) -> list[int]:
    """``count`` new non-empty left-hand-side masks, none in ``taken``."""
    density = 3 / problem.encoding.size
    masks: list[int] = []
    while len(masks) < count:
        mask = random_element_mask(rng, problem.encoding, density)
        if mask and mask not in taken:
            taken.add(mask)
            masks.append(mask)
    return masks


def _kinds(count: int) -> list[str]:
    """The MIX shares of ``count``, rounded down, topped up with implies."""
    kinds: list[str] = []
    for kind, share in MIX:
        kinds.extend([kind] * int(share * count))
    kinds.extend(["fd", "mvd"] * count)
    return kinds[:count]


def _read(rng: random.Random, problem: Problem, kind: str,
          lhs: int) -> tuple[str, dict]:
    if kind in ("closure", "basis"):
        return kind, {"session": SESSION, "x": problem.show(lhs)}
    rhs = random_element_mask(rng, problem.encoding,
                              4 / problem.encoding.size) or 1
    arrow = "->" if kind == "fd" else "->>"
    text = f"{problem.show(lhs)} {arrow} {problem.show(rhs)}"
    return "implies", {"session": SESSION, "dependency": text}


def read_pool(problem: Problem) -> tuple[list[tuple[str, dict]],
                                         list[tuple[str, dict]]]:
    """The fixed hot set and the fixed cold list, in pool order.

    Every cold left-hand side is distinct from every other and from
    the hot set's, so no cold read is a cache hit on its own LHS.
    """
    rng = random.Random(POOL_SEED)
    taken: set[int] = set()
    hot_lhs = _distinct_lhs(rng, problem, HOT_READS, taken)
    hot = [_read(rng, problem, kind, lhs)
           for kind, lhs in zip(_kinds(HOT_READS), hot_lhs)]
    cold_lhs = _distinct_lhs(rng, problem, COLD_READS, taken)
    cold = [_read(rng, problem, kind, lhs)
            for kind, lhs in zip(_kinds(COLD_READS), cold_lhs)]
    return hot, cold


def read_stream(pool: list[tuple[str, dict]], seed: int) -> list[tuple[str, dict]]:
    """The seed's order of a fixed read pool."""
    order = list(pool)
    random.Random(seed).shuffle(order)
    return order


def edit_candidates(problem: Problem) -> list[str]:
    """Extra dependencies, none already in Σ, for the edit stream."""
    rng = random.Random(POOL_SEED + 1)
    sigma = set(problem.sigma)
    extras: list[str] = []
    while len(extras) < EDIT_CANDIDATES:
        lhs = random_element_mask(rng, problem.encoding,
                                  2 / problem.encoding.size)
        rhs = random_element_mask(rng, problem.encoding,
                                  4 / problem.encoding.size)
        if not lhs or not rhs or rhs & ~lhs == 0:
            continue
        arrow = "->" if len(extras) % 2 else "->>"
        text = f"{problem.show(lhs)} {arrow} {problem.show(rhs)}"
        if text not in sigma and text not in extras:
            extras.append(text)
    return extras


def edit_stream(problem: Problem, seed: int, rounds: int = EDIT_ROUNDS,
                ) -> list[tuple[tuple[str, dict], tuple[str, dict]]]:
    """``rounds`` × (an ``add`` or ``retract``, then an ``implies`` probe).

    The stream runs in blocks over one half of :func:`edit_candidates`
    at a time: add each of its candidates, then retract each, in orders
    the seed picks.  So every edit mutates Σ, none fails, and every
    block holds the same edits whatever the seed.  The probe after an
    edit asks about the edited dependency's left-hand side with a fixed
    right-hand side, so it needs the closure the edit just made stale.
    Half the probes after adds and half after retracts are MVDs: a probe
    kind tied to the edit kind splits round latency into two modes with
    the median between them, where it is most sensitive to noise.
    """
    rng = random.Random(seed)
    candidates = edit_candidates(problem)
    half = len(candidates) // 2
    sides = [text.split(" ->")[0] for text in candidates]
    probes = [text.split(" ->")[1].lstrip("> ") for text in candidates]
    stream = []
    block = 0
    while len(stream) < rounds:
        group = list(range(half * (block % 2), half * (block % 2 + 1)))
        for op in ("add", "retract"):
            for index in rng.sample(group, len(group)):
                probe = probes[(index + 1) % len(candidates)]
                arrow = ("->>", "->")[(index + (op == "add")) % 2]
                stream.append((
                    (op, {"session": SESSION,
                          "dependency": candidates[index]}),
                    ("implies", {"session": SESSION,
                                 "dependency": f"{sides[index]} {arrow} "
                                               f"{probe}"})))
        block += 1
    return stream[:rounds]


def answer(session: Session, op: str, params: dict) -> dict:
    """The local result of one wire command (the byte-level oracle)."""
    command = commands.from_wire(op, params)
    return commands.execute(command, session).result
