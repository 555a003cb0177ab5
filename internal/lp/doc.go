// Package lp implements a linear-programming solver in pure Go.
//
// ARROW's formulations (restoration-aware TE, RWA relaxations, ticket
// selection) are all linear programs; the paper solves them with Gurobi.
// This package replaces Gurobi with a bounded-variable revised simplex
// method backed by a sparse LU factorisation of the basis with product-form
// (eta) updates. It is deterministic and has no dependencies outside the
// standard library. The entry point is Model: add variables with bounds and
// objective coefficients, add linear constraints, then call Solve.
//
// Design notes for the simplex implementation follow.
//
// # Computational form
//
// Solve converts the model to
//
//	minimise c·x   subject to   A x = b,   l <= x <= u
//
// where x stacks the structural variables, one slack per row (LE rows get a
// slack in [0, inf), GE rows in (-inf, 0], EQ rows pinned to 0) and one
// phase-1 artificial per row. Maximisation negates the costs.
//
// # Phase 1
//
// Nonbasic variables start at their finite bound nearest zero (free
// variables at zero). The residual b - A x_N defines one artificial per row
// with coefficient ±1 so the artificial basis is the identity and the
// initial basic solution is feasible for the extended problem. Phase 1
// minimises the sum of artificials; a positive optimum proves the original
// model infeasible. Artificials are then pinned to zero (upper bound 0) and
// phase 2 runs with the true costs — artificials still basic at zero are
// harmless and leave the basis through the ratio test.
//
// # Basis factorisation
//
// The basis is factorised by sparse left-looking LU elimination in the
// style of Gilbert–Peierls: columns are processed in ascending-nonzero
// order, each column is solved against the current L via a depth-first
// reachability pass (so the triangular solve touches only the nonzero
// pattern), and the pivot is the largest-magnitude eligible entry (partial
// pivoting). FTRAN/BTRAN are column-oriented triangular solves over the
// factors plus a product-form eta file: each pivot appends one eta vector,
// and the basis is refactorised every Options.Refactor pivots (default 64)
// or when a numerically tiny pivot appears. Only the nonzeros of an eta are
// stored, in one arena, and every refactorisation reuses the same factor
// storage, so the pivot loop allocates nothing in steady state. The arena,
// the factors and every per-solve vector belong to a workspace that outlives
// the solve: Solve and SolveWithBasis take one from a pool and re-size it for
// the model at hand, and nothing they return shares memory with it. Skipping the exact zeros changes no result: the kernel takes
// the same pivots, bit for bit, as one that visits every row.
//
// # Pricing and ratio test
//
// Dantzig pricing (most negative reduced cost) with an automatic switch to
// Bland's lowest-index rule after a long run of degenerate pivots. The
// bounded-variable ratio test considers basic variables hitting either
// bound and the entering variable's own range (a "bound flip" when that is
// the tightest limit — no basis change). Ties prefer the largest pivot
// element for stability.
//
// # Duals and presolve
//
// At optimality the shadow prices y = B^-T c_B are reported per constraint
// in the model's own sense (see Solution.Duals); complementary slackness
// and finite-difference consistency are covered by tests. SolvePresolved
// wraps Solve with standard reductions — fixed variables, singleton rows,
// empty rows and unconstrained columns — iterated to a fixpoint, with
// infeasibility/unboundedness sometimes decided without a simplex call.
//
// # Validation
//
// The solver is validated against exact vertex enumeration on random boxed
// LPs, hand-solved textbook problems (including Beale's cycling example),
// transportation problems, max-flow/min-cut duality (via internal/graph),
// and the branch-and-bound MILP layer is checked against brute-force
// enumeration on random integer programs.
package lp
