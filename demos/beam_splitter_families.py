"""How much of a state's nonclassicality does a balanced beam splitter
convert into entanglement?

Feeds four families of nonclassical two-mode products through the balanced
beam splitter and compares the output entanglement entropy E_F with the
input budget g((M_TN - 1)/2).  The ratio is 1 exactly when the input is a
pair of orthogonally squeezed vacua (the output is then a two-mode squeezed
vacuum), drifts toward 1 for twin number states |N,N>, and toward 1/2 for
single-arm number states |N,0>.  Every row comes from the library's
beam-splitter sweep, in closed form: the number-state rows from the
output's photon law (binomial and twin-Fock), the squeezed rows from the
two-mode squeezed vacuum the output is locally equivalent to.  Neither
needs a truncation.  The two-mode squeezed vacuum rows are checked against
the symplectic spectrum of its covariance matrix.
"""

from bosonic_bounds import (
    Bipartition,
    beam_splitter_sweep,
    entanglement_entropy_gaussian,
    make_tmsv,
)

NUMBERS = [2, 5, 10, 20, 40]


def main():
    for family, title in (
        ("number-split", "single-arm number states |N,0>  (ratio drifts down toward 1/2)"),
        ("twin-number", "twin number states |N,N>  (ratio climbs toward 1)"),
    ):
        print(title)
        for row in beam_splitter_sweep(families=(family,), number_grid=NUMBERS):
            print(f"  N={int(row['param']):3d}  E_F={row['ef']:8.5f}  "
                  f"g_in={row['g_in']:8.5f}  ratio={row['ratio']:.5f}")

    print("orthogonally squeezed pair |s,0> x |s,pi/2>  (ratio is exactly 1)")
    worst = 0.0
    for row in beam_splitter_sweep(families=("orthogonal-squeezed",),
                                   squeeze_grid=[0.3, 0.6, 0.9]):
        print(f"  s={row['param']}  E_F={row['ef']:8.5f}  g_in={row['g_in']:8.5f}  "
              f"ratio={row['ratio']:.12f}")
        worst = max(worst, abs(row["ratio"] - 1.0))
    status = "PASS" if worst <= 1e-9 else "FAIL"
    print(f"[{status}] orthogonal squeezing converts everything: "
          f"max |ratio - 1| = {worst:.2e}")

    print("two-mode squeezed vacuum saturates the bound with equality")
    worst = 0.0
    for row in beam_splitter_sweep(families=("tmsv-direct",),
                                   squeeze_grid=[0.2, 0.5, 0.8, 1.1]):
        spectral = entanglement_entropy_gaussian(make_tmsv(row["param"]), Bipartition(1, 1))
        gap = abs(row["ef"] - spectral)
        print(f"  r={row['param']}  E_F={row['ef']:8.5f}  spectral E_F={spectral:8.5f}  "
              f"gap={gap:.2e}")
        worst = max(worst, gap)
    status = "PASS" if worst <= 1e-6 else "FAIL"
    print(f"[{status}] closed-form E_F matches the symplectic spectrum's to 1e-6 "
          f"(worst {worst:.2e})")


if __name__ == "__main__":
    main()
