"""Mesh-refinement study: degree-N reconstruction converges at order N+1.

The built-in 3-D benchmark trajectory has a closed form, so position
errors are exact. Halving the cell width must divide the error by 2^(N+1);
the printed empirical orders confirm it. The embedded reference values
(the published benchmark results) gate the run when check=True.
"""

from shotr.validate import check_convergence, get_case, run_convergence

case = get_case("conv3d")
rows = run_convergence(case, degrees=[1, 2, 3], mesh_cells=[100, 200, 400, 800])

print(f"{'N':>2} {'cells':>6} {'dt':>9} {'L1(x)':>10} {'order':>6} "
      f"{'L1(y)':>10} {'order':>6} {'L1(z)':>10} {'order':>6}")
for row in rows:
    cells = []
    for ax in "xyz":
        cells.append(f"{row.errors[ax].l1:>10.2e}")
        cells.append(f"{row.orders[ax][0]:>6.2f}" if row.orders else f"{'-':>6}")
    print(f"{row.degree:>2} {row.n_cells:>6} {row.dt:>9.1e} " + " ".join(cells))

violations = check_convergence(rows)
print(f"\nreference-value check: {'clean' if not violations else violations}")
