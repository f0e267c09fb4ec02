"""Synthetic map and data for the ``wide`` workload.

The ML-system view has 12 data nodes, so exact Shapley runs at its
4096-coalition limit there. Seven of them (the alert's descendants and a
side branch) are not ancestors of the alert, so they are dummy players.
The root ``system.features`` is produced by the 16-node subsystem
``core``, which has one modulator, ``core.codec``; 16 players exceed the
exact limit, so that view is solved by sampled Shapley.

The current window changes only the modulator. Its effect enters one hop
below it and reaches the alert in three more hops, each a strong linear
link, so the shift stays far above the trace's negligibility threshold:
a long chain through 8-bin discretizations would let it fade.
"""

from __future__ import annotations

import numpy as np

MAP_NAME = "wide"
ALERT = "system.ranking"
MODULATOR = "core.codec"
CODEC = {"ref": "v1", "cur": "v2"}
CODEC_SHIFT = 1.0

MAP_TEXT = """\
# Synthetic benchmark map: a 12-node system view fed by a 16-node subsystem.

map wide

view system
  data features
  data context
  data traffic
  data score
  data ranking
  data decision
  data outcome
  data side_a
  data side_b
  data side_c
  data side_d
  data side_e
  edge features -> score
  edge context -> score
  edge score -> ranking
  edge traffic -> ranking
  edge ranking -> decision
  edge decision -> outcome
  edge side_a -> side_b
  edge side_b -> side_c
  edge side_c -> side_e
  edge side_d -> side_e

view subsystem core
  data in_a boundary
  data in_b boundary
  data in_c boundary
  data in_d boundary
  data in_e boundary
  data in_f boundary
  data in_g boundary
  modulator codec
  data decoded
  data pb
  data pd
  data pe
  data q1
  data q2
  data agg
  data features
  edge codec -> decoded
  edge in_a -> decoded
  edge in_b -> pb
  edge in_c -> pb
  edge in_d -> pd
  edge in_g -> pd
  edge in_e -> pe
  edge in_f -> pe
  edge pb -> q1
  edge pd -> q1
  edge pe -> q2
  edge q1 -> agg
  edge q2 -> agg
  edge decoded -> features
  edge agg -> features

equiv core.features = system.features
"""


def _window(rng: np.random.Generator, codec: str, n: int) -> dict:
    def noise(sd):
        return rng.normal(0.0, sd, n)

    cols = {f"core.in_{c}": rng.normal(0.0, 1.0, n) for c in "abcdefg"}
    cols["core.codec"] = np.full(n, codec)
    shift = CODEC_SHIFT if codec == CODEC["cur"] else 0.0
    cols["core.decoded"] = cols["core.in_a"] + shift + noise(0.3)
    cols["core.pb"] = cols["core.in_b"] + cols["core.in_c"] + noise(0.3)
    cols["core.pd"] = cols["core.in_d"] - 0.5 * cols["core.in_g"] + noise(0.3)
    cols["core.pe"] = cols["core.in_e"] + 0.5 * cols["core.in_f"] + noise(0.3)
    cols["core.q1"] = cols["core.pb"] + cols["core.pd"] + noise(0.3)
    cols["core.q2"] = cols["core.pe"] + noise(0.3)
    cols["core.agg"] = cols["core.q1"] + cols["core.q2"] + noise(0.3)
    cols["core.features"] = cols["core.decoded"] + 0.3 * cols["core.agg"] + noise(0.3)
    for c in ("context", "traffic", "side_a", "side_d"):
        cols[f"system.{c}"] = rng.normal(0.0, 1.0, n)
    cols["system.score"] = cols["core.features"] + 0.5 * cols["system.context"] + noise(0.3)
    cols["system.ranking"] = cols["system.score"] + 0.5 * cols["system.traffic"] + noise(0.3)
    cols["system.decision"] = cols["system.ranking"] + noise(0.5)
    cols["system.outcome"] = cols["system.decision"] + noise(0.5)
    cols["system.side_b"] = cols["system.side_a"] + noise(0.5)
    cols["system.side_c"] = cols["system.side_b"] + noise(0.5)
    cols["system.side_e"] = cols["system.side_c"] + cols["system.side_d"] + noise(0.5)
    return cols


def generate_csv(n: int, seed: int) -> str:
    """CSV text with ``n`` reference rows then ``n`` current rows."""
    windows = {w: _window(np.random.default_rng([seed, i]), CODEC[w], n)
               for i, w in enumerate(("ref", "cur"))}
    names = sorted(windows["ref"])
    lines = [",".join(["window"] + names)]
    for w, cols in windows.items():
        cells = [cols[c] if cols[c].dtype.kind == "U"
                 else np.char.mod("%.6g", cols[c]) for c in names]
        lines.extend(",".join((w,) + row) for row in zip(*cells))
    return "\n".join(lines) + "\n"
