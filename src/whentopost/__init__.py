"""whentopost: feed visibility simulation and posting-time control.

Simulate follower feeds as point processes, keep exact track of where a
broadcaster's latest post sits in each feed, and decide when to post:
an online controller driven by exponential clocks, a clairvoyant
dynamic-programming schedule for revealed feeds, and simple baselines,
all measured with exact change-point metrics.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
