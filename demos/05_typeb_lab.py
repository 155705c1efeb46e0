#!/usr/bin/env python
"""Experimental lab: a signed-permutation (type B) analogue.

Groups the 2n long-cycle factors of the type-B Coxeter element into n
consecutive pairs and explores the Hurwitz orbit of the grouped
factorization.  Observations are compared against conjectured closed
forms; checks report PASS when they agree and OPEN when the pattern is
still unconfirmed, never FAIL.
"""

from ncindiv.typeb import typeb_report


def main() -> None:
    for n, k in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
        print(f"\nn={n} k={k}")
        for check in typeb_report(n, k):
            print(f"  {check.claim}: observed {check.observed},"
                  f" conjectured {check.closed_form} -> {check.status}")


if __name__ == "__main__":
    main()
