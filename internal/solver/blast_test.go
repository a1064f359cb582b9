package solver

import (
	"math/rand"
	"testing"

	"revnic/internal/expr"
)

// checkedCore is the core backend with a check after every SAT answer:
// the SAT assignment must be complete. Gate outputs are never branched
// on, so this holds only while every gate is fully defined by its
// Tseitin clauses. onSat receives each model.
type checkedCore struct {
	*coreBackend
	t     *testing.T
	onSat func(map[string]uint32)
}

func (c *checkedCore) SolveUnder(cond *expr.Expr) Verdict {
	v := c.coreBackend.SolveUnder(cond)
	if v == VSat {
		if n, all := c.b.s.NumAssigned(), c.b.s.NumVars(); n != all {
			c.t.Fatalf("SAT answer assigns %d of %d SAT variables", n, all)
		}
		c.onSat(c.Model())
	}
	return v
}

// randTerm builds a random 4-bit term over vars that reaches every
// kind of gate the blaster emits: adders, multipliers, bitwise gates,
// constant and barrel shifts, muxes, extensions and concatenation.
func randTerm(r *rand.Rand, vars []*expr.Expr, depth int) *expr.Expr {
	if depth == 0 || r.Intn(4) == 0 {
		if r.Intn(4) == 0 {
			return expr.C(uint32(r.Intn(16)), 4)
		}
		return vars[r.Intn(len(vars))]
	}
	x, y := randTerm(r, vars, depth-1), randTerm(r, vars, depth-1)
	switch r.Intn(12) {
	case 0:
		return expr.Add(x, y)
	case 1:
		return expr.Sub(x, y)
	case 2:
		return expr.Mul(x, y)
	case 3:
		return expr.And(x, y)
	case 4:
		return expr.Or(x, y)
	case 5:
		return expr.Xor(x, y)
	case 6:
		return expr.Shl(x, y)
	case 7:
		return expr.Lshr(x, expr.C(uint32(r.Intn(4)), 4))
	case 8:
		return expr.Ashr(x, y)
	case 9:
		return expr.Ite(randCond(r, vars, depth-1), x, y)
	case 10:
		return expr.Zext(expr.Trunc(x, 2), 4)
	default:
		return expr.Trunc(expr.Concat(x, y), 4)
	}
}

// randCond builds a random width-1 condition over vars.
func randCond(r *rand.Rand, vars []*expr.Expr, depth int) *expr.Expr {
	x, y := randTerm(r, vars, depth), randTerm(r, vars, depth)
	switch r.Intn(4) {
	case 0:
		return expr.Eq(x, y)
	case 1:
		return expr.Ult(x, y)
	case 2:
		return expr.Slt(x, y)
	default:
		return expr.Not(expr.Eq(x, y))
	}
}

// TestSessionModelsComplete runs random exploration-shaped query
// sequences — a path condition that grows by feasible branches and
// backtracks to earlier prefixes, so the session pushes, pops and
// decides each branch under an assumption — and checks every SAT
// answer three ways: the SAT assignment is complete (checkedCore),
// the verdict matches brute force, and the model, completed by a
// model of the path condition for the constraints slicing left out,
// satisfies the unsliced pc ∧ cond under expr.Eval.
func TestSessionModelsComplete(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	names := []string{"mca", "mcb", "mcc"}
	vars := make([]*expr.Expr, len(names))
	for i, n := range names {
		vars[i] = expr.S(n, 4)
	}
	solves := 0
	var last map[string]uint32
	for trial := 0; trial < 60; trial++ {
		s := New()
		s.newBackend = func(interrupt func() bool) Backend {
			return &checkedCore{
				coreBackend: newCoreBackend(interrupt).(*coreBackend),
				t:           t,
				onSat:       func(m map[string]uint32) { solves++; last = m },
			}
		}
		var pc []*expr.Expr
		witness := map[string]uint32{} // a model of pc
		for step := 0; step < 16; step++ {
			if len(pc) > 0 && r.Intn(4) == 0 {
				// Backtrack to a sibling: a prefix keeps its witness.
				pc = pc[:r.Intn(len(pc))]
			}
			cond := randCond(r, vars, 2)
			full := append(pc[:len(pc):len(pc)], cond)
			before := solves
			got := s.MayBeTrue(pc, cond)
			if want := bruteSat(names, full); got != want {
				t.Fatalf("trial %d step %d: MayBeTrue %v, brute force %v for %v under %v", trial, step, got, want, cond, pc)
			}
			if !got {
				continue
			}
			var m map[string]uint32
			if solves > before {
				m = map[string]uint32{}
				for k, v := range witness {
					m[k] = v
				}
				for name := range expr.VarSet(append(Slice(pc, cond), cond)...) {
					m[name] = last[name]
				}
			} else {
				// Answered by a cache: ask for a model of the whole
				// conjunction (a one-shot solve, also checked).
				var ok bool
				if m, ok = s.Model(full); !ok {
					t.Fatalf("trial %d step %d: no model for a feasible query", trial, step)
				}
			}
			for _, c := range full {
				if expr.Eval(c, m) == 0 {
					t.Fatalf("trial %d step %d: model %v violates %v", trial, step, m, c)
				}
			}
			if r.Intn(2) == 0 {
				pc, witness = full, m
			}
		}
	}
	if solves < 300 {
		t.Fatalf("only %d SAT answers checked", solves)
	}
}
