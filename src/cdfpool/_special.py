"""scipy.special's functions, imported on first use.

``_special.ndtr`` is ``scipy.special.ndtr``.  The first attribute read imports
scipy.special, about 0.13 s of a process start, most of it scipy's array-API
layer cloning numpy, and keeps the function in this module's globals, so
later reads are plain lookups.  A process that never reads one, such as
``cdfpool simulate`` or a TLP or SLP fit of Gaussian members, never pays
that import.
"""


def __getattr__(name):
    import scipy.special

    value = getattr(scipy.special, name)
    globals()[name] = value
    return value
