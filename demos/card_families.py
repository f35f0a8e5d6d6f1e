"""Card-deck games: conditioned tree families and their limit constants.

Dealing a fixed multiset of cards and reading the shortest self-certifying
prefix samples the independence number of a random tree conditioned on its
out-degree sequence.  Three classic families drop out of specific decks:
full binary trees, binary trees with distinguished left/right slots, and
plane (ordered) trees.  Each family's mean alpha/n converges to the root
of its own fixed-point equation.
"""

from slithercode import (
    Deck,
    binary_lr_trial,
    constants,
    full_binary_table,
    full_binary_trial,
    plane_trial,
    prefix_alpha,
    run_trials,
)

c = constants()
n, trials, seed = 501, 30_000, 99

print("reference constants (each solves t = g(t) on [0,1]):")
print(f"  uniform trees    rho = {c.rho:.9f}   g(t) = exp(-t)")
print(f"  full binary          {c.full_binary_mean:.9f}   g(t) = 1/2 + (1-t)^2/2  ( = 2 - sqrt 2)")
print(f"  binary L/R           {c.binary_lr_mean:.9f}   g(t) = (1 - t/2)^2      ( = 4 - 2 sqrt 3)")
print(f"  plane                {c.plane_mean:.9f}   g(t) = 1/(1+t)          ( = (sqrt 5 - 1)/2)")

m = (n - 1) // 2
games = (
    ("full binary", lambda rng: full_binary_trial(m, rng), c.full_binary_mean),
    ("binary L/R", lambda rng: binary_lr_trial(n, rng), c.binary_lr_mean),
    ("plane", lambda rng: plane_trial(n, rng), c.plane_mean),
)
print(f"\nsimulated mean alpha/n at n={n}, {trials} deals each:")
for name, trial, target in games:
    h = run_trials(trial, trials, seed, n=n, parameter="alpha")
    print(f"  {name:12s} {h.mean() / n:.6f}   limit {target:.6f}   "
          f"off by {abs(h.mean() / n - target):.2e}")

print("\nsmall full-binary decks are exactly enumerable; m=3 (n=7):")
table = full_binary_table(3)
print("  exact:", dict(sorted(table.counts.items())), "out of", table.total, "deals")
cards = Deck.full_binary(3).cards()  # each deal shuffles these
h = run_trials(lambda rng: prefix_alpha(rng.permutation(cards), 7), 20_000, seed,
               n=7, parameter="alpha")
print("  20000 sampled deals:", {v: h.counts[v] for v in sorted(h.counts)})
probs = table.probabilities()
print("  exact probabilities:", {v: round(p, 4) for v, p in sorted(probs.items())})

print("\nan arbitrary deck works too; cards (1,1,1,2) on n=5:")
cards = Deck(n=5, multiplicities=(3, 1, 0, 0, 0)).cards()
h = run_trials(lambda rng: prefix_alpha(rng.permutation(cards), 5), 8_000, seed,
               n=5, parameter="alpha")
print("  sampled:", {v: h.counts[v] for v in sorted(h.counts)},
      "  (exact conditional law is 3/4 on alpha=3, 1/4 on alpha=4)")
