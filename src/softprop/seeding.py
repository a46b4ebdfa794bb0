"""Counter-based random-stream splitting.

All randomness in the pipeline flows from one root seed. Each stage owns a
fixed integer id, and every independent unit of work inside a stage (a
frame, an episode, a candidate batch) gets its own child stream addressed
by (stage_id, index). Streams are independent and reproducible, so work
units can run in any order, or in parallel, and still produce identical
results for a given root seed.
"""

from __future__ import annotations

import numpy as np

# Stage ids are part of the on-disk reproducibility contract: changing them
# changes every derived stream. Append new stages; never renumber. Ids 4, 5,
# 8 and 9 are retired and must not be reused.
STAGE_DATASET = 1
STAGE_TRAIN_SHAPE = 2
STAGE_CALIBRATION = 3
STAGE_POLICY = 6
STAGE_ROLLOUT = 7
STAGE_CALSET = 10


def child_seed(root_seed, stage_id, index=0):
    """SeedSequence for one work unit; deterministic in (root, stage, index)."""
    return np.random.SeedSequence(int(root_seed), spawn_key=(int(stage_id), int(index)))


def child_rng(root_seed, stage_id, index=0):
    """Generator over the (root, stage, index) stream."""
    return np.random.default_rng(child_seed(root_seed, stage_id, index))


def child_int(root_seed, stage_id, index=0):
    """Plain integer from the (root, stage, index) stream.

    For handing a derived seed to an API that takes a root seed itself.
    """
    state = child_seed(root_seed, stage_id, index).generate_state(1, np.uint64)
    return int(state[0])
