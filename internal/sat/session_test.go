package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

// gates emits Tseitin gate clauses the way the bit-blaster does: every
// gate output is a fresh variable defined by permanent clauses, so a
// long-lived session accumulates variables across scopes. With gate set,
// outputs are gate variables (NewGateVar), as the bit-blaster makes
// them; without, they are decision variables, the shape the trajectory
// pins were recorded with.
type gates struct {
	s    *Solver
	gate bool
}

func (g gates) fresh() Lit {
	if g.gate {
		return Pos(g.s.NewGateVar())
	}
	return Pos(g.s.NewVar())
}

func (g gates) and(x, y Lit) Lit {
	out := g.fresh()
	g.s.AddClause(out.Not(), x)
	g.s.AddClause(out.Not(), y)
	g.s.AddClause(out, x.Not(), y.Not())
	return out
}

func (g gates) or(x, y Lit) Lit { return g.and(x.Not(), y.Not()).Not() }

func (g gates) xor(x, y Lit) Lit {
	out := g.fresh()
	g.s.AddClause(out.Not(), x, y)
	g.s.AddClause(out.Not(), x.Not(), y.Not())
	g.s.AddClause(out, x.Not(), y)
	g.s.AddClause(out, x, y.Not())
	return out
}

// add returns the ripple-carry sum x + y (LSB first, carry dropped).
func (g gates) add(x, y []Lit) []Lit {
	sum := make([]Lit, len(x))
	var carry Lit
	for i := range x {
		t := g.xor(x[i], y[i])
		if i == 0 {
			sum[i] = t
			carry = g.and(x[i], y[i])
			continue
		}
		sum[i] = g.xor(t, carry)
		carry = g.or(g.and(x[i], y[i]), g.and(t, carry))
	}
	return sum
}

// eq returns a literal equivalent to x == y.
func (g gates) eq(x, y []Lit) Lit {
	acc := g.xor(x[0], y[0]).Not()
	for i := 1; i < len(x); i++ {
		acc = g.and(acc, g.xor(x[i], y[i]).Not())
	}
	return acc
}

// sessionScopes drives one long-lived session in the shape the
// solver package's incremental backend does: per query it opens a
// scope, blasts a fresh constraint (permanent gate clauses, one scoped
// root literal), decides it under a one-literal assumption and pops.
// Each query adds about 10 variables per bit, so the session grows by
// thousands of variables over a run. It returns how many queries were
// satisfiable and an FNV-1a digest of the symbol bits of every model.
func sessionScopes(s *Solver, seed int64, queries, symbols, width int) (sat int, models uint64) {
	return runSession(gates{s: s}, seed, queries, symbols, width, nil)
}

// runSession is sessionScopes over the given gate builder; onSat, when
// set, is called with the query index while each satisfying
// assignment is still in place.
func runSession(g gates, seed int64, queries, symbols, width int, onSat func(q int)) (sat int, models uint64) {
	s := g.s
	r := rand.New(rand.NewSource(seed))
	syms := make([][]Lit, symbols)
	for i := range syms {
		syms[i] = make([]Lit, width)
		for j := range syms[i] {
			syms[i][j] = Pos(s.NewVar())
		}
	}
	models = 14695981039346656037
	for q := 0; q < queries; q++ {
		a, b, c := syms[r.Intn(symbols)], syms[r.Intn(symbols)], syms[r.Intn(symbols)]
		s.Push()
		// a + b == c, with a literal of the sum as the branch condition.
		sum := g.add(a, b)
		root := g.eq(sum, c)
		if r.Intn(4) == 0 {
			root = root.Not()
		}
		s.AddScoped(root)
		cond := sum[r.Intn(width)]
		if r.Intn(2) == 0 {
			cond = cond.Not()
		}
		if s.SolveUnder(cond) {
			sat++
			if onSat != nil {
				onSat(q)
			}
			for _, sym := range syms {
				for _, l := range sym {
					models ^= uint64(l.Var()) << 1
					if s.Value(l.Var()) {
						models ^= 1
					}
					models *= 1099511628211
				}
			}
		}
		s.Pop()
		// Branch decisions become path constraints: now and then keep
		// a relation between two symbols permanently.
		if r.Intn(8) == 0 {
			s.AddClause(g.eq(g.add(a, c), b).Not())
		}
	}
	return sat, models
}

// BenchmarkSessionScopes measures the SAT layer alone under the
// incremental backend's push / blast / SolveUnder / pop pattern.
func BenchmarkSessionScopes(b *testing.B) {
	var decisions, vars int64
	for i := 0; i < b.N; i++ {
		s := New()
		sessionScopes(s, 1, 120, 8, 16)
		d, _ := s.Stats()
		decisions += d
		vars += int64(s.NumVars())
	}
	b.ReportMetric(float64(decisions)/float64(b.N), "decisions/op")
	b.ReportMetric(float64(vars)/float64(b.N), "vars/op")
}

// checkModel asserts that the current assignment is a complete model:
// every variable, gate variables included, has a value, and every
// problem and learnt clause has a true literal.
func checkModel(t *testing.T, s *Solver) {
	t.Helper()
	if n := s.NumAssigned(); n != s.NumVars() {
		t.Fatalf("model assigns %d of %d variables", n, s.NumVars())
	}
	for _, list := range [][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			sat := false
			for _, l := range s.lits(c) {
				if s.value(l) == lTrue {
					sat = true
					break
				}
			}
			if !sat {
				t.Fatalf("model falsifies clause %v", s.lits(c))
			}
		}
	}
}

// TestGateVarSessions runs sessions whose gate outputs are gate
// variables: the search never branches on them, every SAT answer is
// still a complete model, and the answers match the same session with
// every variable a decision variable.
func TestGateVarSessions(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		var want []int
		runSession(gates{s: New()}, seed, 40, 6, 8, func(q int) { want = append(want, q) })

		s := New()
		s.SetLearntCap(int(10 * seed))
		checkPicks(t, s)
		var got []int
		runSession(gates{s: s, gate: true}, seed, 40, 6, 8, func(q int) {
			checkModel(t, s)
			got = append(got, q)
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("seed %d: SAT queries %v with gate variables, %v without", seed, got, want)
		}
		gatesN := 0
		for _, d := range s.decision {
			if !d {
				gatesN++
			}
		}
		if gatesN == 0 || len(s.order) > s.NumVars()-gatesN {
			t.Fatalf("seed %d: %d gate variables, %d heap entries for %d variables", seed, gatesN, len(s.order), s.NumVars())
		}
	}
}
