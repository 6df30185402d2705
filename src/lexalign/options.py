"""Value sets that both the library and the command-line parser check.

Kept free of numpy, so the parser can be built without importing it.
"""

NORM_STEPS = ("unit", "center")
DEFAULT_NORMALIZE = ("unit", "center", "unit")
OOV_POLICIES = ("skip", "fail")
DICT_DIRECTIONS = ("ref2other", "other2ref")

# the fitting methods, each also by name; a one-pair method moves the reference too
ORTHOGONAL, MULTISTEP, MEEMI, MEEMI_MULTI = METHODS = (
    "orthogonal", "multistep", "meemi", "meemi-multi")
ONE_PAIR_METHODS = (MULTISTEP, MEEMI)
