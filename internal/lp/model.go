package lp

import (
	"fmt"
	"math"
	"strconv"
)

// Inf is the bound used for unbounded variable ranges.
var Inf = math.Inf(1)

// Sense is the relational operator of a linear constraint.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // left-hand side <= rhs
	GE              // left-hand side >= rhs
	EQ              // left-hand side == rhs
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Var identifies a decision variable within a Model.
type Var int

// Constr identifies a constraint within a Model.
type Constr int

// Term is one coefficient*variable product in a linear expression.
type Term struct {
	Var  Var
	Coef float64
}

// Expr is a linear expression: a sum of terms.
type Expr []Term

// Plus appends a term to the expression and returns the extended expression.
func (e Expr) Plus(coef float64, v Var) Expr { return append(e, Term{Var: v, Coef: coef}) }

// Model is a linear program under construction.
// The zero value is an empty minimisation problem.
type Model struct {
	name     string
	maximize bool

	obj     []float64
	lb, ub  []float64
	varName []string
	integer []bool // used by package mip; ignored by the LP solver

	rows []rowData
	// chunk is the arena chunk the rows' terms are carved from and free its
	// uncarved tail: a row's terms are a full slice of the chunk current when
	// it was added, so growing one row (AddVarToConstrs) copies it out. used
	// counts the terms carved since the last Reset, and need the size of one
	// chunk that would have held them all: a row is carved after combining
	// its terms, but needs room for all of them first. pos is combineTerms'
	// stamp per variable. chunk and free keep length 0 and pos all zeros, so
	// reflect.DeepEqual sees what a model holds, not how it reused memory.
	chunk, free []Term
	used, need  int
	pos         []int
}

// Arena chunks grow with the model between these sizes (in terms): a small
// model wastes little, a large one allocates once per few thousand terms.
const (
	minTermChunk = 64
	maxTermChunk = 4096
)

type rowData struct {
	terms []Term
	sense Sense
	rhs   float64
	name  string
}

// NewModel returns an empty model with the given name.
func NewModel(name string) *Model { return &Model{name: name} }

// Name returns the model's name.
func (m *Model) Name() string { return m.name }

// SetName renames the model. Useful when one model skeleton is reused
// across solve families (diagnostics and ledger events carry the name).
func (m *Model) SetName(name string) { m.name = name }

// SetMaximize selects between maximisation (true) and minimisation (false,
// the default).
func (m *Model) SetMaximize(max bool) { m.maximize = max }

// Maximize reports whether the model is a maximisation problem.
func (m *Model) Maximize() bool { return m.maximize }

// AddVar adds a variable with bounds [lb, ub] and objective coefficient obj.
// Use -Inf/Inf for unbounded sides. The name is used in diagnostics only.
func (m *Model) AddVar(lb, ub, obj float64, name string) Var {
	m.lb = append(m.lb, lb)
	m.ub = append(m.ub, ub)
	m.obj = append(m.obj, obj)
	m.varName = append(m.varName, name)
	m.integer = append(m.integer, false)
	m.pos = append(m.pos, 0)
	return Var(len(m.obj) - 1)
}

// AddIntVar adds a variable marked integral. The LP solver treats it as
// continuous; package mip enforces integrality via branch and bound.
func (m *Model) AddIntVar(lb, ub, obj float64, name string) Var {
	v := m.AddVar(lb, ub, obj, name)
	m.integer[v] = true
	return v
}

// AddBinVar adds a {0,1} integer variable.
func (m *Model) AddBinVar(obj float64, name string) Var {
	return m.AddIntVar(0, 1, obj, name)
}

// SetObj overwrites the objective coefficient of v.
func (m *Model) SetObj(v Var, coef float64) { m.obj[v] = coef }

// Obj returns the objective coefficient of v.
func (m *Model) Obj(v Var) float64 { return m.obj[v] }

// SetBounds overwrites the bounds of v.
func (m *Model) SetBounds(v Var, lb, ub float64) { m.lb[v], m.ub[v] = lb, ub }

// Bounds returns the bounds of v.
func (m *Model) Bounds(v Var) (lb, ub float64) { return m.lb[v], m.ub[v] }

// IsInteger reports whether v was added as an integer variable.
func (m *Model) IsInteger(v Var) bool { return m.integer[v] }

// VarName returns the diagnostic name of v: the one it was added with, or
// one derived from its index when that was empty (models built on a hot path
// pass "" and pay for a name only if one is asked for).
func (m *Model) VarName(v Var) string {
	if name := m.varName[v]; name != "" {
		return name
	}
	return "x" + strconv.Itoa(int(v))
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.obj) }

// NumConstrs returns the number of constraints.
func (m *Model) NumConstrs() int { return len(m.rows) }

// NumIntVars returns the number of integer variables.
func (m *Model) NumIntVars() int {
	n := 0
	for _, b := range m.integer {
		if b {
			n++
		}
	}
	return n
}

// AddConstr adds the constraint expr (sense) rhs. Terms mentioning the same
// variable more than once are summed. It returns the constraint handle.
func (m *Model) AddConstr(expr Expr, sense Sense, rhs float64, name string) Constr {
	for _, t := range expr {
		if int(t.Var) < 0 || int(t.Var) >= len(m.obj) {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", name, t.Var))
		}
	}
	if cap(m.free) < len(expr) {
		chunk := min(max(m.used, minTermChunk), maxTermChunk)
		m.chunk = make([]Term, 0, max(chunk, len(expr)))
		m.free = m.chunk
	}
	row := combineTerms(m.free, expr, m.pos)
	n := len(row)
	m.free = row[n:n]
	m.need = max(m.need, m.used+len(expr))
	m.used += n
	m.rows = append(m.rows, rowData{terms: row[:n:n], sense: sense, rhs: rhs, name: name})
	return Constr(len(m.rows) - 1)
}

// Reset empties the model of variables and constraints, keeping its name,
// its sense and every backing array, so building a model of a size it has
// held before allocates nothing. Handles from before the Reset are invalid.
func (m *Model) Reset() {
	m.obj, m.lb, m.ub = m.obj[:0], m.lb[:0], m.ub[:0]
	m.varName, m.integer, m.pos = m.varName[:0], m.integer[:0], m.pos[:0]
	m.TruncateConstrs(0)
	if m.need > cap(m.chunk) {
		m.chunk = make([]Term, 0, m.need) // the next build of this size fits one chunk
	}
	m.free, m.used, m.need = m.chunk, 0, 0
}

// ColumnEntry is one (constraint, coefficient) pair of a column appended
// via AddVarToConstrs.
type ColumnEntry struct {
	Constr Constr
	Coef   float64
}

// AddVarToConstrs adds a variable AND splices its column into existing
// constraints in place: each entry appends coef*v to the named row's terms.
// Entries with zero coefficient are dropped and duplicate entries for the
// same constraint are summed (matching AddConstr's combineTerms semantics).
// Part of the delta API (see SetRHS): together with TruncateConstrs it lets
// a restricted master problem grow column-wise between warm re-solves
// without cloning or rebuilding, which is what column generation needs; a
// warm basis follows the grown model through Basis.ExtendTo.
func (m *Model) AddVarToConstrs(lb, ub, obj float64, name string, col []ColumnEntry) Var {
	for _, e := range col {
		if int(e.Constr) < 0 || int(e.Constr) >= len(m.rows) {
			panic(fmt.Sprintf("lp: column %q references unknown constraint %d", name, e.Constr))
		}
	}
	v := m.AddVar(lb, ub, obj, name)
	for _, e := range col {
		if e.Coef == 0 {
			continue
		}
		// v is new, so a row that holds it already holds it last.
		r := &m.rows[e.Constr]
		if k := len(r.terms) - 1; k >= 0 && r.terms[k].Var == v {
			r.terms[k].Coef += e.Coef
			continue
		}
		r.terms = append(r.terms, Term{Var: v, Coef: e.Coef})
	}
	return v
}

// SetRHS overwrites the right-hand side of constraint c in place. Part of
// the delta API: together with SetBounds and TruncateConstrs it lets one
// built model skeleton be re-solved under per-scenario patches without
// re-running combineTerms or cloning, so a basis from the previous solve
// stays structurally valid for SolveWithBasis.
func (m *Model) SetRHS(c Constr, rhs float64) { m.rows[c].rhs = rhs }

// RHS returns the right-hand side of constraint c.
func (m *Model) RHS(c Constr) float64 { return m.rows[c].rhs }

// ConstrSense returns the sense of constraint c.
func (m *Model) ConstrSense(c Constr) Sense { return m.rows[c].sense }

// ConstrName returns the diagnostic name of constraint c, derived from its
// index when it was added with an empty one (see VarName).
func (m *Model) ConstrName(c Constr) string {
	if name := m.rows[c].name; name != "" {
		return name
	}
	return "c" + strconv.Itoa(int(c))
}

// TruncateConstrs drops every constraint with index >= n, rewinding the
// model to an earlier skeleton. Variables are untouched. Constraint
// handles returned by AddConstr for dropped rows become invalid; handles
// below n stay valid. Part of the delta API (see SetRHS).
func (m *Model) TruncateConstrs(n int) {
	if n < 0 || n > len(m.rows) {
		panic(fmt.Sprintf("lp: TruncateConstrs(%d) outside [0, %d]", n, len(m.rows)))
	}
	// Clear the tails so their term slices can be collected even while the
	// backing array is retained for reuse by later AddConstr calls.
	for i := n; i < len(m.rows); i++ {
		m.rows[i] = rowData{}
	}
	m.rows = m.rows[:n]
}

// combineTerms appends expr to dst with duplicate variables summed and zero
// coefficients dropped, preserving first-occurrence order. dst must have
// room for len(expr) more terms; pos, a zero per variable, is zeros on return.
func combineTerms(dst []Term, expr Expr, pos []int) []Term {
	increasing := true
	for i := 1; i < len(expr); i++ {
		if expr[i].Var <= expr[i-1].Var {
			increasing = false
			break
		}
	}
	base := len(dst)
	if increasing {
		// No variable repeats, so there is nothing to look up or sum.
		dst = append(dst, expr...)
	} else {
		// pos[v] is 1 + the index in dst of v's first term, 0 before it.
		for _, t := range expr {
			if i := pos[t.Var]; i > 0 {
				dst[i-1].Coef += t.Coef
				continue
			}
			dst = append(dst, t)
			pos[t.Var] = len(dst)
		}
		for _, t := range dst[base:] {
			pos[t.Var] = 0
		}
	}
	w := base
	for _, t := range dst[base:] {
		if t.Coef != 0 {
			dst[w] = t
			w++
		}
	}
	return dst[:w]
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := &Model{
		name:     m.name,
		maximize: m.maximize,
		obj:      append([]float64(nil), m.obj...),
		lb:       append([]float64(nil), m.lb...),
		ub:       append([]float64(nil), m.ub...),
		varName:  append([]string(nil), m.varName...),
		integer:  append([]bool(nil), m.integer...),
		pos:      make([]int, len(m.pos)),
		rows:     make([]rowData, len(m.rows)),
	}
	for i, r := range m.rows {
		c.rows[i] = rowData{terms: append([]Term(nil), r.terms...), sense: r.sense, rhs: r.rhs, name: r.name}
	}
	return c
}

// Stats describes the size of a model.
type Stats struct {
	Vars, IntVars, Constrs, Nonzeros int
}

// Stats returns size statistics for the model.
func (m *Model) Stats() Stats {
	s := Stats{Vars: m.NumVars(), IntVars: m.NumIntVars(), Constrs: m.NumConstrs()}
	for _, r := range m.rows {
		s.Nonzeros += len(r.terms)
	}
	return s
}

// EvalExpr computes the value of a constraint's left-hand side at x.
func (m *Model) EvalExpr(c Constr, x []float64) float64 {
	sum := 0.0
	for _, t := range m.rows[c].terms {
		sum += float64(t.Coef * x[t.Var])
	}
	return sum
}

// RowViolation returns how much point x violates constraint c (0 if satisfied).
func (m *Model) RowViolation(c Constr, x []float64) float64 {
	lhs := m.EvalExpr(c, x)
	r := m.rows[c]
	switch r.sense {
	case LE:
		return math.Max(0, lhs-r.rhs)
	case GE:
		return math.Max(0, r.rhs-lhs)
	default:
		return math.Abs(lhs - r.rhs)
	}
}

// MaxViolation returns the largest constraint or bound violation at x.
func (m *Model) MaxViolation(x []float64) float64 {
	worst := 0.0
	for i := range m.rows {
		if v := m.RowViolation(Constr(i), x); v > worst {
			worst = v
		}
	}
	for j := range m.obj {
		if v := m.lb[j] - x[j]; v > worst {
			worst = v
		}
		if v := x[j] - m.ub[j]; v > worst {
			worst = v
		}
	}
	return worst
}

// ObjValue computes the objective value at x (in the model's own sense).
func (m *Model) ObjValue(x []float64) float64 {
	sum := 0.0
	for j, c := range m.obj {
		sum += float64(c * x[j])
	}
	return sum
}
