"""The range rule every float setting obeys."""

import math

# Each rule's text, as error messages print it, and its test; NaN fails every test.
_RULES = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, 1)": lambda v: 0 < v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}


def check_range(name: str, value: float, rule: str) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is finite and obeys ``rule``.

    +inf passes a rule with no upper bound, so it is then rejected as not finite.
    """
    if not _RULES[rule](value):
        raise ValueError(f"{name} must be {rule}, got {value}")
    if math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value}")
