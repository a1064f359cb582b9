package solver

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"revnic/internal/expr"
)

// randCons builds a random width-1 constraint over the given 4-bit
// variables.
func randCons(r *rand.Rand, vars []*expr.Expr) *expr.Expr {
	term := func() *expr.Expr {
		e := vars[r.Intn(len(vars))]
		for i, n := 0, r.Intn(3); i < n; i++ {
			c := expr.C(uint32(r.Intn(16)), 4)
			switch r.Intn(5) {
			case 0:
				e = expr.Add(e, c)
			case 1:
				e = expr.Sub(e, c)
			case 2:
				e = expr.And(e, vars[r.Intn(len(vars))])
			case 3:
				e = expr.Xor(e, c)
			case 4:
				e = expr.Mul(e, c)
			}
		}
		return e
	}
	lhs, rhs := term(), term()
	switch r.Intn(3) {
	case 0:
		return expr.Eq(lhs, rhs)
	case 1:
		return expr.Ult(lhs, rhs)
	default:
		return expr.Not(expr.Eq(lhs, rhs))
	}
}

// bruteSat enumerates every assignment of the 4-bit variables.
func bruteSat(names []string, cons []*expr.Expr) bool {
	total := 4 * len(names)
	for n := 0; n < 1<<total; n++ {
		env := map[string]uint32{}
		rest := n
		for _, name := range names {
			env[name] = uint32(rest & 15)
			rest >>= 4
		}
		ev := expr.NewEvaluator(env)
		ok := true
		for _, c := range cons {
			if ev.Eval(c) == 0 {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// BackendConformanceTest is the shared conformance harness: any
// Backend implementation must agree with brute-force ground truth on
// scoped queries, produce verifiable models, keep push/pop balanced,
// and honor the interrupt hook.
func BackendConformanceTest(t *testing.T, factory func(interrupt func() bool) Backend) {
	t.Helper()
	names := []string{"cfa", "cfb", "cfc"}
	vars := make([]*expr.Expr, len(names))
	for i, n := range names {
		vars[i] = expr.S(n, 4)
	}

	t.Run("agreement", func(t *testing.T) {
		r := rand.New(rand.NewSource(17))
		for trial := 0; trial < 40; trial++ {
			b := factory(nil)
			all := []*expr.Expr{}
			for i, n := 0, r.Intn(3); i < n; i++ {
				c := randCons(r, vars)
				all = append(all, c)
				b.Assert(c)
			}
			base := len(all)
			for cycle := 0; cycle < 3; cycle++ {
				all = all[:base]
				b.Push()
				for i, n := 0, r.Intn(2); i < n; i++ {
					c := randCons(r, vars)
					all = append(all, c)
					b.Assert(c)
				}
				cond := randCons(r, vars)
				want := bruteSat(names, append(append([]*expr.Expr{}, all...), cond))
				v := b.SolveUnder(cond)
				if v == VUnknown {
					t.Fatalf("trial %d cycle %d: VUnknown on an in-domain query", trial, cycle)
				}
				if got := v == VSat; got != want {
					t.Fatalf("trial %d cycle %d: verdict %v, brute force %v", trial, cycle, v, want)
				}
				if v == VSat {
					m := b.Model()
					ev := expr.NewEvaluator(m)
					for _, c := range append(append([]*expr.Expr{}, all...), cond) {
						if ev.Eval(c) == 0 {
							t.Fatalf("trial %d cycle %d: model %v violates %v", trial, cycle, m, c)
						}
					}
				}
				b.Pop()
			}
			// After all pops: base constraints only.
			want := bruteSat(names, all[:base])
			if v := b.SolveUnder(nil); (v == VSat) != want {
				t.Fatalf("trial %d: after pops verdict %v, brute force %v", trial, v, want)
			}
		}
	})

	t.Run("pushpop-balance", func(t *testing.T) {
		b := factory(nil)
		b.Assert(expr.Eq(vars[0], expr.C(3, 4)))
		for depth := 0; depth < 5; depth++ {
			b.Push()
			b.Assert(expr.Not(expr.Eq(vars[0], expr.C(uint32(depth+4), 4))))
		}
		if v := b.SolveUnder(nil); v != VSat {
			t.Fatalf("verdict %v at depth 5, want sat", v)
		}
		b.Push()
		b.Assert(expr.Not(expr.Eq(vars[0], expr.C(3, 4))))
		if v := b.SolveUnder(nil); v != VUnsat {
			t.Fatalf("verdict %v with contradictory scope, want unsat", v)
		}
		for depth := 0; depth < 6; depth++ {
			b.Pop()
		}
		if v := b.SolveUnder(nil); v != VSat {
			t.Fatalf("verdict %v after unwinding all scopes, want sat", v)
		}
	})

	t.Run("pop-unbalanced-panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("Pop with no open scope did not panic")
			}
		}()
		factory(nil).Pop()
	})

	t.Run("interrupt-honored", func(t *testing.T) {
		// A 32-bit factoring query: far outside the small-domain
		// enumerator's domain and thousands of search iterations for
		// the SAT core, so every backend either answers VUnknown
		// immediately (out of domain) or hits the interrupt poll.
		x, y := expr.S("cfix", 32), expr.S("cfiy", 32)
		hard := expr.Eq(expr.Mul(x, y), expr.C(0xDEADBEEF, 32))
		b := factory(func() bool { return true })
		b.Assert(hard)
		if v := b.SolveUnder(nil); v != VUnknown {
			t.Fatalf("verdict %v under always-firing interrupt, want unknown", v)
		}
	})
}

func TestBackendConformance(t *testing.T) {
	t.Run("core", func(t *testing.T) { BackendConformanceTest(t, newCoreBackend) })
	t.Run("smalldomain", func(t *testing.T) { BackendConformanceTest(t, newSmallDomainBackend) })
}

// TestFrontEndMatchesBruteForce checks the whole front end, not just
// the SAT core, against ground truth: every MayBeTrue, MustBeTrue and
// Model answer over a seeded query sequence must agree with
// brute-force enumeration of the unsliced pc ∧ cond, and every
// returned model must satisfy the whole path condition. The default
// run must hit the fingerprint cache, the counterexample index and
// session reuse, so slicing, caching and subsumption are all on the
// checked path. The index's share is measured against the same
// sequence with the index disabled.
func TestFrontEndMatchesBruteForce(t *testing.T) {
	names := []string{"pfa", "pfb", "pfc"}
	vars := make([]*expr.Expr, len(names))
	for i, n := range names {
		vars[i] = expr.S(n, 4)
	}
	with := func(pc []*expr.Expr, c *expr.Expr) []*expr.Expr {
		return append(append([]*expr.Expr{}, pc...), c)
	}
	run := func(s *Solver) {
		t.Helper()
		r := rand.New(rand.NewSource(23))
		var pc []*expr.Expr
		for q := 0; q < 150; q++ {
			if len(pc) > 0 && r.Intn(4) == 0 {
				pc = pc[:r.Intn(len(pc))]
			}
			cond := randCons(r, vars)
			may := s.MayBeTrue(pc, cond)
			if want := bruteSat(names, with(pc, cond)); may != want {
				t.Fatalf("query %d: MayBeTrue=%v, brute force %v", q, may, want)
			}
			must := s.MustBeTrue(pc, cond)
			if want := !bruteSat(names, with(pc, expr.Not(cond))); must != want {
				t.Fatalf("query %d: MustBeTrue=%v, brute force %v", q, must, want)
			}
			if may && r.Intn(2) == 0 {
				pc = append(pc, cond)
			}
			if r.Intn(5) == 0 {
				m, ok := s.Model(pc)
				if want := bruteSat(names, pc); ok != want {
					t.Fatalf("query %d: Model ok=%v, brute force %v", q, ok, want)
				}
				if ok {
					for _, c := range pc {
						if expr.Eval(c, m) == 0 {
							t.Fatalf("query %d: model %v violates %v", q, m, c)
						}
					}
				}
			}
		}
	}
	s := New()
	run(s)
	noIndex := New()
	noIndex.cx = newCxIndex(0)
	run(noIndex)
	if _, hits := s.Stats(); hits == 0 {
		t.Error("run never hit the fingerprint cache")
	}
	if s.ModelHits() <= noIndex.ModelHits() {
		t.Errorf("run never hit the counterexample index (model hits %d, %d without the index)",
			s.ModelHits(), noIndex.ModelHits())
	}
	if ext, _ := s.Sessions(); ext == 0 {
		t.Error("run never reused the incremental session")
	}
}

// flakyBackend answers VUnknown for its first n solves (simulating an
// interrupted search) and delegates afterwards.
type flakyBackend struct {
	Backend
	failures int
}

func (f *flakyBackend) SolveUnder(cond *expr.Expr) Verdict {
	if f.failures > 0 {
		f.failures--
		return VUnknown
	}
	return f.Backend.SolveUnder(cond)
}

// flakyOnce returns a backend constructor whose first instance fails
// its first solve; every later instance is the plain core.
func flakyOnce() func(interrupt func() bool) Backend {
	built := 0
	return func(interrupt func() bool) Backend {
		built++
		if built == 1 {
			return &flakyBackend{Backend: newCoreBackend(interrupt), failures: 1}
		}
		return newCoreBackend(interrupt)
	}
}

// TestAbortedNeverCached pins the never-cache-aborted rule on both
// solve paths: a query the backend fails to answer must answer
// conservatively and leave the verdict and model caches untouched,
// and the same query must be answered correctly once the backend
// recovers.
func TestAbortedNeverCached(t *testing.T) {
	x := expr.S("pnc", 8)
	pc := []*expr.Expr{expr.Ult(x, expr.C(100, 8))}
	cond := expr.Ult(x, expr.C(50, 8))
	untouched := func(t *testing.T, s *Solver) {
		t.Helper()
		if n := s.CacheSize(); n != 0 {
			t.Fatalf("aborted query populated the verdict cache (%d entries)", n)
		}
		if n := len(s.models); n != 0 {
			t.Fatalf("aborted query populated the model cache (%d entries)", n)
		}
		if s.ModelHits() != 0 {
			t.Fatal("aborted query produced a model hit")
		}
	}
	recovered := func(t *testing.T, s *Solver) {
		t.Helper()
		if _, hits := s.Stats(); hits != 0 {
			t.Fatal("post-recovery answer came from the cache, not a solve")
		}
		if n := s.CacheSize(); n != 1 {
			t.Fatalf("decided query not cached (%d entries)", n)
		}
	}

	t.Run("session", func(t *testing.T) {
		s := New()
		s.newBackend = flakyOnce()
		if s.MayBeTrue(pc, cond) {
			t.Fatal("aborted query must answer conservatively (false)")
		}
		untouched(t, s)
		if !s.MayBeTrue(pc, cond) {
			t.Fatal("query answered false after recovery: aborted verdict was cached")
		}
		recovered(t, s)
	})

	t.Run("one-shot", func(t *testing.T) {
		s := New()
		s.newBackend = flakyOnce()
		cons := append(append([]*expr.Expr{}, pc...), cond)
		if _, ok := s.Model(cons); ok {
			t.Fatal("aborted query must answer conservatively (no model)")
		}
		untouched(t, s)
		m, ok := s.Model(cons)
		if !ok {
			t.Fatal("no model after recovery: aborted verdict was cached")
		}
		for _, c := range cons {
			if expr.Eval(c, m) == 0 {
				t.Fatalf("model %v violates %v", m, c)
			}
		}
		recovered(t, s)
	})
}

// TestInterruptAborts exercises the real abort path: a genuinely hard
// factoring query under an always-firing interrupt must answer
// VUnknown (conservative false) and cache nothing.
func TestInterruptAborts(t *testing.T) {
	var abort atomic.Bool
	abort.Store(true)
	s := NewWith(Config{Interrupt: func() bool { return abort.Load() }})
	x, y := expr.S("pix", 32), expr.S("piy", 32)
	cond := expr.Eq(expr.Mul(x, y), expr.C(0xDEADBEEF, 32))
	if s.MayBeTrue(nil, cond) {
		t.Fatal("interrupted query answered true")
	}
	if n := s.CacheSize(); n != 0 {
		t.Fatalf("interrupted query populated the cache (%d entries)", n)
	}
}

// TestSessionSharesPrefixAcrossSiblings pins the push/pop payoff:
// alternating between two sibling constraint prefixes (same parent
// path, different last constraint) must keep one backend session
// alive instead of rebuilding per flip — the pre-push/pop design
// rebuilt on every prefix mismatch.
func TestSessionSharesPrefixAcrossSiblings(t *testing.T) {
	s := New()
	x, y := expr.S("ssa", 8), expr.S("ssb", 8)
	parent := []*expr.Expr{expr.Ult(x, expr.C(200, 8)), expr.Ult(y, expr.C(200, 8))}
	left := append(append([]*expr.Expr{}, parent...), expr.Ult(x, expr.C(100, 8)))
	right := append(append([]*expr.Expr{}, parent...), expr.Not(expr.Ult(x, expr.C(100, 8))))
	for i := 0; i < 6; i++ {
		pc := left
		if i%2 == 1 {
			pc = right
		}
		// Vary the condition so every query misses the caches and
		// actually reaches the session.
		cond := expr.Eq(expr.Add(y, expr.C(uint32(i), 8)), expr.C(7, 8))
		if !s.MayBeTrue(pc, cond) {
			t.Fatalf("query %d: expected sat", i)
		}
	}
	ext, rebuilt := s.Sessions()
	if rebuilt != 1 {
		t.Fatalf("sibling flips rebuilt the session %d times, want 1", rebuilt)
	}
	if ext != 5 {
		t.Fatalf("extended = %d, want 5", ext)
	}
}

// TestUnsatSubsumption pins the index's UNSAT side: once a constraint
// set is proven UNSAT, any superset query is answered by subsumption
// without solving.
func TestUnsatSubsumption(t *testing.T) {
	s := New()
	x, y := expr.S("usa", 8), expr.S("usb", 8)
	a := expr.Ult(x, expr.C(5, 8))
	b := expr.Not(expr.Ult(x, expr.C(10, 8)))
	if s.Satisfiable([]*expr.Expr{a, b}) {
		t.Fatal("x<5 ∧ x≥10 must be unsat")
	}
	before := s.ModelHits()
	extra := expr.Eq(y, expr.C(1, 8))
	if s.Satisfiable([]*expr.Expr{a, extra, b}) {
		t.Fatal("superset of an unsat set must be unsat")
	}
	if s.ModelHits() == before {
		t.Fatal("superset query did not hit the UNSAT index")
	}
}

// TestIndexOutlivesRecencyList pins the "job-wide" claim: a model
// stays findable through its variable-set bucket even after the
// global recency list has cycled past it — the old 4-entry ring
// forgot it.
func TestIndexOutlivesRecencyList(t *testing.T) {
	s := New() // recency list holds defaultCxCap = 4
	x := expr.S("iwx", 8)
	if !s.Satisfiable([]*expr.Expr{expr.Ult(x, expr.C(10, 8))}) {
		t.Fatal("sat expected")
	}
	// Push 8 models for other variable sets through the recency list.
	for i := 0; i < 8; i++ {
		v := expr.S("iwo"+string(rune('a'+i)), 8)
		if !s.Satisfiable([]*expr.Expr{expr.Eq(v, expr.C(uint32(i+1), 8))}) {
			t.Fatal("sat expected")
		}
	}
	before := s.ModelHits()
	// Weaker query over x's variable set: the bucket still holds the
	// witness.
	if !s.Satisfiable([]*expr.Expr{expr.Ult(x, expr.C(50, 8))}) {
		t.Fatal("sat expected")
	}
	if s.ModelHits() == before {
		t.Fatal("bucketed model was lost: index did not outlive the recency list")
	}
}
