"""A chunk's shuffled (center, context) pairs, drawn the way they were drawn
before the pairs shared one buffer.

Each window offset o adds the pairs its right mask keeps, then those its
left mask keeps, to two lists; the lists are concatenated, and one int64
``rng.permutation`` of the pair count reorders both arrays by two ``take``
calls. ``fane.sgns._pairs_for_chunk`` with an rng must give the same pair
sequence and leave the rng in the same state.
"""

import numpy as np

from fane.sgns import _pair_masks


def shuffled_pairs(idx_chunk, kp_chunk, window, rng):
    """(centers, contexts) of a chunk of walks, shuffled by ``rng``."""
    l = idx_chunk.shape[1]
    cs, os_ = [], []
    for o, right, left in _pair_masks(idx_chunk, kp_chunk, window):
        first, second = idx_chunk[:, :l - o], idx_chunk[:, o:]
        cs += [first[right], second[left]]
        os_ += [second[right], first[left]]
    centers, contexts = np.concatenate(cs), np.concatenate(os_)
    shuffle = rng.permutation(len(centers))
    return np.take(centers, shuffle), np.take(contexts, shuffle)
