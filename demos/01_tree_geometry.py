# %% [markdown]
# # Exact hyperbolic geometry on the free-group tree
#
# The rank-k free group acts on its Cayley tree, the simplest interesting
# 0-hyperbolic space.  Everything here is exact integer combinatorics:
# distances are word lengths, Gromov products are common-prefix lengths,
# translation lengths come from cyclic reduction.

# %%
from hypwalk import (
    FreeGroupOracle,
    IsometryClass,
    Shadow,
    four_point_delta,
    gromov_product,
    orbit_gromov_product,
    shadow_contains,
)
from hypwalk import words as W

oracle = FreeGroupOracle(rank=2)
u = W.str_to_word("abAB")     # the commutator [a, b]
v = W.str_to_word("abba")

print("d(x, u.x) =", oracle.displacement(u))
print("<u.x, v.x>_x =", orbit_gromov_product(oracle, u, v), "(common prefix 'ab')")
print("plain formula:", gromov_product(4, 4, 4))

# %% [markdown]
# Shadows: the set of orbit points whose geodesic from the basepoint
# travels at least distance r toward a target.  On the tree, membership is
# just a prefix condition, and the complement of a shadow nests exactly
# inside the opposite shadow (no slack: trees are 0-hyperbolic).

# %%
shadow = Shadow(source=(), target=W.str_to_word("aa"), slack=0.0)
for z in ("aaa", "aabB", "ab", "b"):
    print(f"z = {z!r:7} in S_x(a^2, 0):", shadow_contains(oracle, shadow, W.str_to_word(z)))

# %% [markdown]
# Translation lengths and the isometry trichotomy.  Every nontrivial
# element of a free group is loxodromic; the budgeted estimator converges
# from above with error at most d(x, g.x)/budget, and the tree model
# overrides it with the exact cyclic length.

# %%
w = W.str_to_word("baaB")  # conjugate of a^2: tau = 2
print("tau estimate:", oracle.translation_length_estimate(w, budget=3))
print("classify a^2:", oracle.classify(W.str_to_word("aa"), 8))
print("classify identity:", oracle.classify((), 8))
assert oracle.classify(w, 8) is IsometryClass.LOXODROMIC

# %% [markdown]
# The four-point condition measures hyperbolicity from distance data alone.
# Trees score exactly zero on every quadruple.

# %%
import random

rng = random.Random(0)
quads = [
    tuple(
        W.reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(12)])
        for _ in range(4)
    )
    for _ in range(100)
]
print("four-point delta over 100 random quadruples:", four_point_delta(oracle, quads))
