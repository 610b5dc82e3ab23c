"""Whole tag streams joined from simkit's block generators, for the in-memory tests."""

import numpy as np

from fcphotons import simkit
from fcphotons.simkit import DetectorModel, TagStream


def joined(blocks, duration_ps: int) -> tuple[TagStream, ...]:
    """One TagStream per position of the block tuples, on channels 0, 1, ..."""
    blocks = list(blocks)
    return tuple(TagStream(k, np.concatenate([b[k] for b in blocks]), duration_ps)
                 for k in range(len(blocks[0])))


def pair_streams(p: simkit.SourceParams, duration_ps: int, seed) -> tuple[TagStream, ...]:
    """Herald (channel 0) and signal (channel 1) streams of simkit.pair_blocks."""
    return joined(simkit.pair_blocks(p, duration_ps, seed), duration_ps)


def chain_streams(p: simkit.SourceParams, duration_ps: int, seed,
                  herald_model=DetectorModel(), signal_model=DetectorModel()):
    """Herald, hbt1 and hbt2 streams (channels 0, 1, 2) of simkit.g2_chain_blocks."""
    return joined(simkit.g2_chain_blocks(p, herald_model, signal_model, duration_ps, seed),
                  duration_ps)
