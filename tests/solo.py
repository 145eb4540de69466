"""The engine on one config, one model or one training step, for the tests."""

import numpy as np

from fedstruct import federation
from fedstruct.errors import NumericFailureError


def run_one(shards, archs, cfg, **kwargs):
    """run_experiments on one config: its reports, or its failure raised."""
    (result,) = federation.run_experiments(shards, archs, [cfg], **kwargs)
    if isinstance(result, NumericFailureError):
        raise result
    return result


def stack_of_one(model):
    """A one-replica model as a stack of one that shares its memory, so that
    a kernel's in-place step updates the model itself."""
    return model.map_arrays(lambda a: a[None])


def train_step(model, batch, labels, protos, cfg):
    """The engine's training step of one model, stepped in place, on one
    (n, input_dim) batch under one config, as a phase runs it: its [sup,
    proto, inst, total], its structural skips and its failures."""
    if protos is not None:
        protos = federation.PrototypeSet(protos.vectors[None], protos.counts)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ((terms, skipped, failed),) = federation._train_step(
            [(stack_of_one(model), batch[None], labels[None])], protos,
            federation._objective([cfg]), cfg.learning_rate)
    return terms[0], int(skipped[0]), failed
