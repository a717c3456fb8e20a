"""Entanglement needs nonclassicality: coherence-scale bounds in action.

The squared quadrature coherence scale C^2 upper-bounds how entangled a
state can be: E_N <= n_minus (ln C^2 + ln(n/n_minus)), with a two-mode
refinement that pure two-mode squeezed vacua saturate.  This script
evaluates both on hand-picked states, then runs a seeded randomized audit
over mixed, classical, and Fock-space states.
"""

import numpy as np

from bosonic_bounds import (
    Bipartition,
    gaussian_measures,
    log_negativity_qcs_refined,
    make_tmsv,
    qcs2_gaussian,
    random_audit,
    random_gaussian_state,
)


def main():
    print("two-mode squeezed vacuum saturates the refined bound")
    for r in (0.3, 0.6, 1.0):
        st = make_tmsv(r)
        chk = log_negativity_qcs_refined(
            qcs2_gaussian(st), 2.0 * r, float(np.linalg.det(st.cov))
        )
        print(f"  r={r}  C^2={qcs2_gaussian(st):8.5f}  E_N={2.0 * r:.5f}  "
              f"margin={chk.margin:+.2e}  saturated={chk.saturated}")

    print("random mixed two-mode states keep a strict margin")
    bp = Bipartition(1, 1)
    for seed in range(4):
        st = random_gaussian_state(2, seed=seed)
        rep = gaussian_measures(st, bp)
        print(f"  seed={seed}  C^2={rep.qcs2:8.5f}  E_N={rep.log_negativity:8.5f}  "
              f"n_minus={rep.n_minus}")

    print("seeded audit across 3000 random states (plus classical and "
          "Fock-space draws)")
    report = random_audit(n_states=3000, modes=2, seed=42, fock_states=300,
                          classical_states=300)
    status = "PASS" if not report.violations else "FAIL"
    print(f"[{status}] {report.checks} checks, {len(report.violations)} violations")
    for name, entry in sorted(report.by_check.items()):
        print(f"  {name}: {entry['count']} checks, tightest margin "
              f"{entry['min_margin']:.3e}")


if __name__ == "__main__":
    main()
