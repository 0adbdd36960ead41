# %% [markdown]
# # The characteristic index and the freeness of random normal closures
#
# Extend the free group by a finite kernel A with the generators acting by
# automorphisms.  Conjugation maps the group onto a subgroup H of Aut(A);
# its order k is the characteristic index of a measure supported on the
# generators.  The walk's image in H equidistributes, so the image of w_n
# is trivial with limiting frequency 1/k -- and triviality of the image is
# exactly what lets the normal closure of w_n be free.  The k-th power
# always lands in the kernel of the action (the image's order divides k,
# by Lagrange's theorem), which is why normal closures of w_n^k are
# generically free regardless; the experiment does not sample it.

# %%
from fractions import Fraction

from hypwalk import SemidirectOracle, characteristic_index
from hypwalk import experiments as E
from hypwalk.finitegroups import Automorphism, FiniteGroup, cyclic_automorphism
from hypwalk.walk import FiniteMeasure

z3 = FiniteGroup.cyclic(3)
inversion = cyclic_automorphism(3, 2)
model = SemidirectOracle(2, z3, [inversion, Automorphism.identity(z3)])

print("phi(ab) =", model.word_action((1, 2)).images, "(inversion)")
print("phi(a^2) =", model.word_action((1, 1)).images, "(identity)")

# %%
atoms = [
    ("a", model.element((1,)), Fraction(1, 4)),
    ("A", model.element((-1,)), Fraction(1, 4)),
    ("b", model.element((2,)), Fraction(1, 4)),
    ("B", model.element((-2,)), Fraction(1, 4)),
]
measure = FiniteMeasure(model, atoms, attest_non_elementary=True)
k = characteristic_index(model, [a.element for a in measure.atoms])
print("characteristic index k =", k)

# %% [markdown]
# The trivial-image frequency is exactly 1/2 at every step count here --
# the image walk on Z/2 has increment distribution (1/2, 1/2), so the
# parity is a fair coin.

# %%
result = E.characteristic_index_experiment(measure, n_grid=[10, 100, 500], trials=4000, seed=37)
for n, agg in result.aggregates["per_n"].items():
    print(f"n={n}: P(image trivial) = {agg['trivial_frequency']:.4f}")

# %% [markdown]
# Control: with the trivial action the kernel is central, k = 1, and the
# image is always trivial -- the case where the normal closure of w_n
# itself (no power needed) is generically free.

# %%
control_model = SemidirectOracle(
    2, z3, [Automorphism.identity(z3), Automorphism.identity(z3)]
)
control_atoms = [
    ("a", control_model.element((1,)), Fraction(1, 4)),
    ("A", control_model.element((-1,)), Fraction(1, 4)),
    ("b", control_model.element((2,)), Fraction(1, 4)),
    ("B", control_model.element((-2,)), Fraction(1, 4)),
]
control = FiniteMeasure(control_model, control_atoms, attest_non_elementary=True)
outcome = E.characteristic_index_experiment(control, n_grid=[10, 100], trials=500, seed=41)
print("control k =", outcome.aggregates["characteristic_index"],
      "| kernel central:", outcome.params["kernel_central"])
for n, agg in outcome.aggregates["per_n"].items():
    print(f"n={n}: P(image trivial) = {agg['trivial_frequency']}")
