#!/usr/bin/env python3
"""Finite-state transforms: transduction with certified-bound propagation,
the uniform/morphism factoring, products, splits, and the stack machine
that escapes the well-behaved classes."""

from apseq import analysis as A
from apseq import generators as G
from apseq import transforms as T
from apseq.core import Alphabet, agreement_length

B = Alphabet.binary()


def main():
    tm = G.thue_morse()
    fib = G.fibonacci()

    print("== uniform transduction propagates the certified window ==")
    mach = T.cyclic_transducer(B, 3)
    img = T.transduce(mach, tm)
    print(f"image prefix: {img.prefix(6).text}")
    print("n  image bound h(h(n))  measured r(n) at 1e5")
    for n in (1, 2, 4):
        print(f"{n}  {img.certified_bound(n):19d}  {A.empirical_regulator(img, n, 10**5).value}")

    print("\n== every machine factors as uniform followed by a morphism ==")
    out = Alphabet.of("x", "y")
    emit = {("u", "0"): out.word("xy"), ("u", "1"): out.word(""),
            ("v", "0"): out.word("y"), ("v", "1"): out.word("xx")}
    step = {("u", "0"): "v", ("u", "1"): "u", ("v", "0"): "v", ("v", "1"): "u"}
    weird = T.Transducer(B, out, ("u", "v"), "u", emit, step)
    uniform, phi = T.decompose(weird)
    lhs = T.transduce(weird, tm)
    rhs = T.apply_morphism(phi, T.transduce(uniform, tm))
    print(f"direct == uniform-then-morphism to 10^4: "
          f"{agreement_length(lhs, rhs, 10**4) is None}")

    print("\n== reversibility ==")
    print(f"3-state cycle reversible: {T.is_reversible(mach)}")
    merger_step = {("s", "0"): "t", ("t", "0"): "t", ("s", "1"): "t", ("t", "1"): "s"}
    pairs = T.pair_alphabet(Alphabet(("s", "t")), B)
    merger = T.Transducer(B, pairs, ("s", "t"), "s",
                          {(q, a): pairs.word([T.pair_symbol(q, a)])
                           for q in ("s", "t") for a in B}, merger_step)
    print(f"merger reversible: {T.is_reversible(merger)}; "
          f"almost reversible wrt {{1}}: {T.is_almost_reversible(merger, {'1'})}")

    print("\n== products ==")
    z = T.cyclic(fib, 3)
    print(f"golden x 3-counter: {z.prefix(5).text}")
    rep = A.empirical_regulator(z, 4, 10**5)
    print(f"image still uniformly recurrent: r(4) = {rep.value}, "
          f"finite factors = {len(rep.finitely_occurring)}")

    print("\n== marker splits ==")
    x = G.eventually_periodic("3200122403100110", "110")
    s = T.split(x, "0", 500)
    print(f"blocks after each 0 (first dropped): "
          f"{'(' + ')('.join(s[i] for i in range(5)) + ')'}")
    stm = T.split(tm, "0", 10**4)
    print(f"doubling word 0-blocks: {stm.alphabet.symbols} "
          f"(gaps bounded by the length-1 window)")

    print("\n== the stack machine leaves the recurrent world ==")
    pd = T.counterexample_machine()
    ape = G.alternating_prefix_example()
    outp = T.pushdown_transduce(pd, ape)
    print(f"mode stream: {outp.prefix(48).text}")
    for h in (10**3, 10**4, 10**5):
        codes = outp.codes(h)[:h]
        best = cur = 1
        for i in range(1, h):
            cur = cur + 1 if codes[i] == codes[i - 1] else 1
            best = max(best, cur)
        print(f"longest constant run within {h:>6}: {best}")
    print("runs grow without bound: the image is not generalized almost periodic")

    print("\n== bound formulas ==")
    bf = T.bound_formulas(lambda n: n + 1, 2)
    print(f"g(n)=n+1, m=2: image bound at n=5 is {bf['image'](5)}; "
          f"reversible {bf['reversible'](5)}; prefix budget {bf['prefix']}")


if __name__ == "__main__":
    main()
