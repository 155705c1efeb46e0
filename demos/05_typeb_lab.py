#!/usr/bin/env python
"""Experimental lab: a signed-permutation (type B) analogue.

Groups the kn simple generators s_0 ... s_{kn-1} of the type B Coxeter
word s_0 s_1 ... s_{kn-1} into n runs of k consecutive generators and
explores the Hurwitz orbit of the grouped factorization.  Observations
are compared against conjectured closed forms; checks report PASS when
they agree and OPEN when the pattern is still unconfirmed, never FAIL.
"""

from ncindiv.typeb import typeb_report
from ncindiv.verify import Check


def main() -> None:
    for n, k in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
        print(f"\nn={n} k={k}")
        for claim, conjectured, observed in typeb_report(n, k):
            status = Check(claim, conjectured, observed, conjectural=True).status
            print(f"  {claim}: observed {observed},"
                  f" conjectured {conjectured} -> {status}")


if __name__ == "__main__":
    main()
