"""Adam parameter updates with bias correction.

Moments live in a per-parameter dict keyed like the network's parameter
dict; the learning rate is fixed for the whole run.
"""

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-7


@dataclass
class AdamState:
    learning_rate: float
    step: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)


def adam_step(state, params, grads):
    """One Adam update over every parameter that has a gradient.

    Updates params in place and returns (params, state). Moment tensors are
    lazily created shape-congruent with their parameters.
    """
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    for key, g in grads.items():
        p = params[key]
        m = state.first_moment.get(key)
        if m is None:
            m = state.first_moment[key] = np.zeros_like(p)
        v = state.second_moment.get(key)
        if v is None:
            v = state.second_moment[key] = np.zeros_like(p)
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * (g * g)
        p -= state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + EPSILON)
    return params, state
