"""Walk the 10-vertex worked example through the whole pipeline.

Builds the tree, classifies every vertex, encodes it to its slither code,
decodes the code back, and then reads the independence number, root, and
P-set straight off the sequence without decoding at all.
"""

from slithercode import (
    NORMAL,
    SlitherCode,
    classify,
    read_alpha,
    read_root_and_pset,
    slither_decode,
    slither_encode,
    validate_tree,
)

tree = validate_tree({
    "n": 10, "root": 9,
    "parent": {1: 2, 2: 5, 3: 5, 4: 6, 5: 9, 6: 1, 7: 3, 8: 1, 10: 4}})

print("tree: root", tree.root)
kids = tree.children_lists()
for v in range(1, 11):
    if kids[v]:
        print(f"  {v} -> {kids[v]}")

pm = classify(tree, NORMAL)
print("\nclassification (token-on-vertex game, last move to a leaf wins):")
print("  P vertices:", sorted(pm.p_set()))
print("  N vertices:", sorted(pm.n_set()))
print("  independence number = |P| =", len(pm.p_set()))

code, aux = slither_encode(tree, NORMAL)
print("\nslither code:", " ".join(map(str, code.symbols)))
print("auxiliary:   ", " ".join(map(str, aux)))
print("(aux[i] is the vertex removed into slot i; code[i] is its parent;")
print(" P-parents fill slots left to right, N-parents right to left)")

back = slither_decode(code)
assert back == tree
print("\ndecode(code) returns the identical tree, root", back.root)

# the point of the construction: parameters are visible in the sequence
print("\nreading the sequence without decoding:")
print("  alpha from the shortest self-certifying prefix:", read_alpha(code))
rr = read_root_and_pset(code)
print("  root:", rr.root, "(class", rr.root_class + ")")
print("  P-set:", sorted(rr.p_set))

fresh = SlitherCode(n=10, variant=NORMAL, symbols=(3, 1, 4, 1, 5, 9, 2, 6, 5))
assert slither_decode(fresh) == tree
print("\nany length-9 sequence over 1..10 is some tree's code; this one is ours")
