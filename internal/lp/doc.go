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
// and the basis is refactorised every refactorEvery (64) pivots
// or when a numerically tiny pivot appears. Only the nonzeros of an eta are
// stored, in one arena, and every refactorisation reuses the same factor
// storage, so the pivot loop allocates nothing in steady state. The arena,
// the factors and every per-solve vector belong to a workspace that outlives
// the solve: SolveInto, behind Solve and SolveWithBasis, takes one from a
// pool and re-sizes it for the model at hand, and nothing it returns shares
// memory with it.
//
// # An iteration costs what changed
//
// One invariant governs the kernel: it does the arithmetic of the full pass,
// in the full pass's order, minus the terms whose operand did not change or
// is an exact zero. Such a term cannot move a float (at most the sign of a
// zero, which no comparison, sum or product downstream tells apart), so the
// solver takes, bit for bit, the pivots of a kernel that visits every row and
// prices every column on every iteration. The eta file above is one use of
// it; pricing and the triangular solves are the other two.
//
// Reduced costs are cached. The first BTRAN of a phase prices every column,
// d_j = c_j − y·a_j; each later one compares the new y with the remembered
// one and recomputes, by the same dot product, only the columns with an
// entry in a row whose y moved (plus that row's slack and, in phase 1, its
// artificial). Beside d_j sits the column's entering score — the size of its
// dual infeasibility, 0 when it is basic, pinned or within tolerance —
// refreshed with d_j and for the entering and leaving variable of each
// pivot, so choosing the entering variable is "first largest score"
// (Dantzig) or "first positive" (Bland), the full scan's pick exactly. The
// choice keeps each block of 64 scores' largest and the first column holding
// it, recomputes only the blocks whose scores were refreshed since, and reads
// the block maxima in order. On ARROW's Facebook LPs (≈ 960 rows, 540 structurals, 6,000
// nonzeros) about 6 entries of y move per pivot and some 30 columns are
// re-priced; measured before the change, the cost of pricing was the
// status/bound/score branches per column, not the multiplications. The cache
// is dropped on entry to each phase, where the cost vector and the pinned
// set change.
//
// The triangular solves follow their reach. factor also records the
// row-wise patterns of L and U, and each pass of FTRAN/BTRAN's LU solve
// collects the pivot steps its right-hand side reaches through the pattern
// (a depth-first search, as in the factorisation), sorts them and runs the
// full loop's body over that list: a step never reached holds an exact zero.
// There the vectors have 20–30 nonzeros going in and coming out, against 960
// steps a pass. When a search passes n/6 steps it is abandoned, the pass runs
// full length, and the next 16 solves on that side (FTRAN or BTRAN) do not
// search: baseline LPs such as TeaVaR's carry half-dense duals, and a wasted
// search before every solve cost them up to a third. Both loops compute the
// same floats, so the rule has no setting — which one ran shows in time only.
//
// The optimality certificate (see Certificate) reads none of this: after the
// last pivot it recomputes y and every reduced cost from scratch, so a stale
// cache entry could end a solve early only by failing the certificate.
// lp.repriced_cols, lp.solve_reach, lp.full_solves and lp.scan_cols (the
// scores the entering choice reads) count the work done.
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
// # Warm starts and the dual simplex
//
// SolveWithBasis installs a basis and takes one of three paths. A primal
// feasible basic point skips phase 1. A point that breaks bounds under a
// basis that prices out — every reduced cost within optTol of the sign
// optimality wants, as after appending rows the previous optimum violates
// or tightening bounds — goes to the bounded dual simplex (dual.go), which
// keeps the reduced costs dual feasible while it pivots the violated basics
// out, and then to phase 2. Anything else is repaired onto a reduced phase
// 1. The dual pivot shares the primal one's machinery: the leaving row has
// the largest bound violation (ties to the highest position), BTRAN of e_r
// gives row r of B⁻¹ and the model's rows give the pivot row from it, and
// the ratio test flips boxed columns to their other bound while the
// violation left stays above feasTol, taking the entering column among the
// near-ties of Harris's tolerance by its pivot size. Its passes follow the
// same patterns as the primal loop's, to the same floats as full ones.
//
// # Duals
//
// At optimality the shadow prices y = B^-T c_B are reported per constraint
// in the model's own sense (see Solution.Duals); complementary slackness
// and finite-difference consistency are covered by tests.
//
// # Who owns a Solution
//
// The caller does. Solve and SolveWithBasis return a new one; SolveInto fills
// the one it is handed and returns it, so a caller that reads each answer and
// drops it before the next solve hands the same Solution to every solve, and
// X, Duals and Basis are written into the arrays that Solution holds from
// the solves before, which leaves them allocation-free once they have
// reached the size of the largest model solved. The offline stage's RWA LP
// (one Solution per scratch), the TE baselines and an uncaptured Phase II (a
// pool in package te) solve this way, and so does the column-generation
// master, whose re-solves alternate between two Solutions because each
// starts from the basis of the one before: a start basis that is the
// destination's own Basis panics. A captured Phase II, whose Basis and Duals
// the sensitivity handle keeps, solves into a new one.
// Everything else in a Solution is written afresh on every solve: Status,
// Objective and Iterations, and the Certificate, WarmInfo and HealthReport,
// which are new objects each time, so a caller may keep them past the next
// solve (allocations keep their certificate, RWA results their warm info
// and health, the ledger both). A solve that does not end optimal sets
// Duals, Basis and Cert to nil. None of this changes a pivot: the fill reads
// the solver's state after its last one.
//
// # Validation
//
// The solver is validated against exact vertex enumeration on random boxed
// LPs, hand-solved textbook problems (including Beale's cycling example),
// transportation problems, max-flow/min-cut duality (via internal/graph),
// and the branch-and-bound MILP layer is checked against brute-force
// enumeration on random integer programs.
package lp
