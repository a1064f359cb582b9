package sat

import (
	"math/rand"
	"testing"
)

func TestLitEncoding(t *testing.T) {
	p, n := Pos(5), Neg(5)
	if p.Var() != 5 || n.Var() != 5 || p.Sign() || !n.Sign() {
		t.Fatal("literal encoding broken")
	}
	if p.Not() != n || n.Not() != p {
		t.Fatal("Not broken")
	}
}

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(Pos(a)) || !s.Solve() {
		t.Fatal("single unit should be SAT")
	}
	if !s.Value(a) {
		t.Fatal("model should set a true")
	}
	if s.AddClause(Neg(a)) {
		t.Fatal("contradicting unit should fail")
	}
	if s.Solve() {
		t.Fatal("must stay UNSAT")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("empty clause must be UNSAT")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Pos(a), Neg(a))         // tautology: ignored
	s.AddClause(Pos(b), Pos(b), Pos(b)) // duplicates collapse to unit
	if !s.Solve() || !s.Value(b) {
		t.Fatal("want SAT with b=true")
	}
}

// pigeonhole(n) encodes n+1 pigeons into n holes: classically UNSAT
// and requires genuine clause learning to refute quickly.
func pigeonhole(s *Solver, pigeons, holes int) {
	vars := make([][]int, pigeons)
	for p := range vars {
		vars[p] = make([]int, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		cl := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			cl[h] = Pos(vars[p][h])
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(Neg(vars[p1][h]), Neg(vars[p2][h]))
			}
		}
	}
}

// The Stats pins in this file fix the search trajectory: they were
// recorded with the linear-scan branching the order heap replaced, and
// any change to the decision order moves them.
func checkStats(t *testing.T, s *Solver, decisions, conflicts int64) {
	t.Helper()
	if d, c := s.Stats(); d != decisions || c != conflicts {
		t.Errorf("Stats() = %d decisions, %d conflicts; pinned %d, %d", d, c, decisions, conflicts)
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	if s.Solve() {
		t.Fatal("PHP(6,5) must be UNSAT")
	}
	checkStats(t, s, 183, 144)
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if !s.Solve() {
		t.Fatal("PHP(5,5) must be SAT")
	}
	checkStats(t, s, 10, 0)
}

// bruteForce decides satisfiability of a clause set over nVars
// variables by enumeration.
func bruteForce(nVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				val := m>>l.Var()&1 == 1
				if val != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
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

func TestRandomFormulas(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		nVars := 4 + r.Intn(9) // 4..12
		nClauses := 1 + r.Intn(6*nVars)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		addOK := true
		for i := 0; i < nClauses; i++ {
			n := 1 + r.Intn(3)
			c := make([]Lit, n)
			for j := range c {
				v := r.Intn(nVars)
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				addOK = false
				break
			}
		}
		want := bruteForce(nVars, clauses)
		var got bool
		if !addOK {
			got = false
		} else {
			got = s.Solve()
		}
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v clauses=%v", trial, got, want, clauses)
		}
		if got {
			// Verify the model satisfies every clause.
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if s.Value(l.Var()) != l.Sign() {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: model does not satisfy %v", trial, c)
				}
			}
		}
	}
}

func TestIncrementalSolving(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		nVars := 4 + r.Intn(6)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		alive := true
		for round := 0; round < 6; round++ {
			for i := 0; i < 3; i++ {
				n := 1 + r.Intn(3)
				c := make([]Lit, n)
				for j := range c {
					v := r.Intn(nVars)
					if r.Intn(2) == 0 {
						c[j] = Pos(v)
					} else {
						c[j] = Neg(v)
					}
				}
				clauses = append(clauses, c)
				if !s.AddClause(c...) {
					alive = false
				}
			}
			got := alive && s.Solve()
			want := bruteForce(nVars, clauses)
			if got != want {
				t.Fatalf("trial %d round %d: incremental=%v brute=%v", trial, round, got, want)
			}
			if !want {
				break
			}
		}
	}
}

func TestAssumptionQueries(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(Neg(a), Pos(b)) // a -> b
	s.AddClause(Neg(b), Pos(c)) // b -> c
	if !s.SolveUnder(Pos(a)) {
		t.Fatal("a alone should be SAT")
	}
	if s.SolveUnder(Pos(a), Neg(c)) {
		t.Fatal("a & !c contradicts the chain")
	}
	// Assumptions must not leak into later solves.
	if !s.SolveUnder(Neg(c)) {
		t.Fatal("!c alone should be SAT")
	}
	if !s.Solve() {
		t.Fatal("base formula still SAT")
	}
	_ = b
}

func TestRandomAssumptionQueries(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var decisions, conflicts int64
	for trial := 0; trial < 150; trial++ {
		nVars := 4 + r.Intn(6)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		ok := true
		for i := 0; i < 2*nVars; i++ {
			n := 1 + r.Intn(3)
			c := make([]Lit, n)
			for j := range c {
				v := r.Intn(nVars)
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				ok = false
				break
			}
		}
		for q := 0; q < 5; q++ {
			var assumptions []Lit
			seen := map[int]bool{}
			for i := 0; i < 1+r.Intn(3); i++ {
				v := r.Intn(nVars)
				if seen[v] {
					continue
				}
				seen[v] = true
				if r.Intn(2) == 0 {
					assumptions = append(assumptions, Pos(v))
				} else {
					assumptions = append(assumptions, Neg(v))
				}
			}
			// Brute-force with assumptions as extra unit clauses.
			ref := append([][]Lit{}, clauses...)
			for _, a := range assumptions {
				ref = append(ref, []Lit{a})
			}
			want := bruteForce(nVars, ref)
			got := ok && s.SolveUnder(assumptions...)
			if got != want {
				t.Fatalf("trial %d query %d: got %v want %v (clauses %v assume %v)",
					trial, q, got, want, clauses, assumptions)
			}
		}
		d, c := s.Stats()
		decisions += d
		conflicts += c
	}
	if decisions != 86 || conflicts != 0 {
		t.Errorf("batch Stats() = %d decisions, %d conflicts; pinned 86, 0", decisions, conflicts)
	}
}

func TestLearntDeletionBoundsDatabase(t *testing.T) {
	capped := New()
	capped.SetLearntCap(50)
	pigeonhole(capped, 7, 6)
	if capped.Solve() {
		t.Fatal("PHP(7,6) must be UNSAT")
	}
	if n := capped.NumLearnts(); n > 50 {
		t.Errorf("learnt database %d exceeds cap 50", n)
	}
	if capped.DeletedLearnts() == 0 {
		t.Error("expected activity-based deletion to fire on a conflict-heavy instance")
	}
	checkArena(t, capped)

	// A long session under a small cap deletes learnt clauses again and
	// again; the arena must be compacted rather than grow with them.
	s := New()
	s.SetLearntCap(20)
	compacted := false
	for round := int64(0); round < 8; round++ {
		runSession(gates{s: s, gate: true}, round, 20, 6, 8, nil)
		checkArena(t, s)
		if len(s.ca) < len(s.clauses)+len(s.learnts)+int(s.deleted) {
			compacted = true
		}
	}
	if !compacted {
		t.Errorf("no arena compaction in %d learnt-clause deletions", s.deleted)
	}
}

// TestCompactionKeepsTrajectory pins a run whose learnt-clause
// deletions trigger arena compaction to the counters the
// pointer-per-clause store produced: relocating clauses must not move
// the search.
func TestCompactionKeepsTrajectory(t *testing.T) {
	s := New()
	s.SetLearntCap(50)
	pigeonhole(s, 7, 6)
	if s.Solve() {
		t.Fatal("PHP(7,6) must be UNSAT")
	}
	if len(s.ca) == len(s.clauses)+len(s.learnts)+int(s.deleted) {
		t.Fatalf("no compaction in %d deletions", s.deleted)
	}
	checkStats(t, s, 1785, 1374)
}

// checkArena asserts that deleted clauses waste at most half the clause
// arena: its length stays within twice the live literals, and the
// header table within the live clauses plus a third of the live
// literals (a deleted clause has at least three).
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	live, n := 0, 0
	for _, list := range [][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			live += int(s.ca[c].n)
			n++
		}
	}
	if len(s.arena) != live+s.wasted {
		t.Fatalf("arena holds %d literals: %d live, %d wasted", len(s.arena), live, s.wasted)
	}
	if len(s.arena) > 2*live || len(s.ca) > n+live/3 {
		t.Errorf("arena of %d literals and %d headers for %d live literals in %d clauses", len(s.arena), len(s.ca), live, n)
	}
}

func TestLearntDeletionPreservesAnswers(t *testing.T) {
	// Deleting learnt clauses only drops derived pruning; answers must
	// match brute force for every cap, including an aggressive one.
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 200; trial++ {
		nVars := 4 + r.Intn(9)
		nClauses := 1 + r.Intn(6*nVars)
		s := New()
		s.SetLearntCap(4)
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		addOK := true
		for i := 0; i < nClauses; i++ {
			n := 1 + r.Intn(3)
			c := make([]Lit, n)
			for j := range c {
				v := r.Intn(nVars)
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				addOK = false
				break
			}
		}
		want := bruteForce(nVars, clauses)
		got := addOK && s.Solve()
		if got != want {
			t.Fatalf("trial %d: capped solver=%v brute=%v clauses=%v", trial, got, want, clauses)
		}
	}
}

func TestLearntDeletionUnderAssumptions(t *testing.T) {
	// Exercise the SolveUnder reduction path: repeated assumption
	// queries on one long-lived instance must stay correct while the
	// database is constantly trimmed (locked clauses survive).
	r := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 100; trial++ {
		nVars := 4 + r.Intn(6)
		s := New()
		s.SetLearntCap(4)
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		ok := true
		for i := 0; i < 2*nVars; i++ {
			n := 1 + r.Intn(3)
			c := make([]Lit, n)
			for j := range c {
				v := r.Intn(nVars)
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				ok = false
				break
			}
		}
		for q := 0; q < 8; q++ {
			var assumptions []Lit
			seen := map[int]bool{}
			for i := 0; i < 1+r.Intn(3); i++ {
				v := r.Intn(nVars)
				if seen[v] {
					continue
				}
				seen[v] = true
				if r.Intn(2) == 0 {
					assumptions = append(assumptions, Pos(v))
				} else {
					assumptions = append(assumptions, Neg(v))
				}
			}
			ref := append([][]Lit{}, clauses...)
			for _, a := range assumptions {
				ref = append(ref, []Lit{a})
			}
			want := bruteForce(nVars, ref)
			got := ok && s.SolveUnder(assumptions...)
			if got != want {
				t.Fatalf("trial %d query %d: got %v want %v (clauses %v assume %v)",
					trial, q, got, want, clauses, assumptions)
			}
		}
	}
}

func TestScopedClauses(t *testing.T) {
	s := New()
	x := s.NewVar()
	if !s.AddClause(Pos(x)) {
		t.Fatal("base clause rejected")
	}
	if s.ScopeDepth() != 0 {
		t.Fatalf("ScopeDepth = %d, want 0", s.ScopeDepth())
	}
	s.Push()
	if s.ScopeDepth() != 1 {
		t.Fatalf("ScopeDepth = %d, want 1", s.ScopeDepth())
	}
	s.AddScoped(Neg(x))
	if s.Solve() {
		t.Fatal("SAT with contradictory scoped clause active")
	}
	if s.Unsat() {
		t.Fatal("scoped contradiction poisoned the solver globally")
	}
	s.Pop()
	if s.ScopeDepth() != 0 {
		t.Fatalf("ScopeDepth = %d, want 0 after Pop", s.ScopeDepth())
	}
	if !s.Solve() {
		t.Fatal("UNSAT after popping the contradictory scope")
	}
	if !s.Value(x) {
		t.Fatal("model lost the base clause")
	}
}

func TestScopeNesting(t *testing.T) {
	s := New()
	x, y := s.NewVar(), s.NewVar()
	s.AddClause(Pos(x), Pos(y))
	s.Push()
	s.AddScoped(Neg(x))
	s.Push()
	s.AddScoped(Neg(y))
	if s.Solve() {
		t.Fatal("SAT with both scopes active")
	}
	s.Pop() // drop ¬y
	if !s.Solve() {
		t.Fatal("UNSAT with only outer scope active")
	}
	if s.Value(x) || !s.Value(y) {
		t.Fatal("model violates active constraints")
	}
	s.Pop() // drop ¬x
	if !s.Solve() {
		t.Fatal("UNSAT with no scopes active")
	}
}

func TestPopWithoutPushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty scope stack did not panic")
		}
	}()
	New().Pop()
}

func TestAddScopedWithoutScope(t *testing.T) {
	s := New()
	x := s.NewVar()
	s.AddScoped(Pos(x))
	if !s.Solve() || !s.Value(x) {
		t.Fatal("AddScoped without open scope must behave like AddClause")
	}
}

// TestScopedRandom checks push/pop semantics against brute force: a
// random base formula plus a random scoped layer must answer like the
// conjunction while the scope is open and like the base alone after
// Pop — across repeated cycles on one solver instance, so learnt
// clauses from scoped conflicts must not leak into later queries.
func TestScopedRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	randClause := func(nVars int) []Lit {
		c := make([]Lit, 1+r.Intn(3))
		for j := range c {
			v := r.Intn(nVars)
			if r.Intn(2) == 0 {
				c[j] = Pos(v)
			} else {
				c[j] = Neg(v)
			}
		}
		return c
	}
	for trial := 0; trial < 120; trial++ {
		nVars := 4 + r.Intn(7)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var base [][]Lit
		for i, n := 0, r.Intn(3*nVars); i < n; i++ {
			c := randClause(nVars)
			base = append(base, c)
			s.AddClause(c...)
		}
		baseWant := bruteForce(nVars, base)
		for cycle := 0; cycle < 4; cycle++ {
			s.Push()
			scoped := append([][]Lit(nil), base...)
			for i, n := 0, 1+r.Intn(2*nVars); i < n; i++ {
				c := randClause(nVars)
				scoped = append(scoped, c)
				s.AddScoped(c...)
			}
			if got, want := s.Solve(), bruteForce(nVars, scoped); got != want {
				t.Fatalf("trial %d cycle %d scoped: solver=%v brute=%v", trial, cycle, got, want)
			}
			s.Pop()
			if got := s.Solve(); got != baseWant {
				t.Fatalf("trial %d cycle %d after pop: solver=%v brute=%v", trial, cycle, got, baseWant)
			}
		}
	}
}

// TestScopedUnderAssumptions mixes open scopes with SolveUnder
// assumptions: the scoped layer must stay active and the assumptions
// must stay transient.
func TestScopedUnderAssumptions(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		nVars := 4 + r.Intn(6)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var all [][]Lit
		for i, n := 0, r.Intn(3*nVars); i < n; i++ {
			c := make([]Lit, 1+r.Intn(3))
			for j := range c {
				v := r.Intn(nVars)
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			all = append(all, c)
			if r.Intn(2) == 0 {
				s.AddClause(c...)
			} else {
				if s.ScopeDepth() == 0 {
					s.Push()
				}
				s.AddScoped(c...)
			}
		}
		for q := 0; q < 4; q++ {
			a := Pos(r.Intn(nVars))
			if r.Intn(2) == 0 {
				a = a.Not()
			}
			want := bruteForce(nVars, append(append([][]Lit(nil), all...), []Lit{a}))
			if got := s.SolveUnder(a); got != want {
				t.Fatalf("trial %d q %d: solver=%v brute=%v under %v", trial, q, got, want, a)
			}
		}
	}
}

// TestScopedLearntDeletion exercises push/pop under a tiny learnt cap:
// deletion plus scope retirement must not change answers.
func TestScopedLearntDeletion(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := New()
	s.SetLearntCap(8)
	nVars := 10
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	var base [][]Lit
	for i := 0; i < 12; i++ {
		c := []Lit{Pos(r.Intn(nVars)), Neg(r.Intn(nVars)), Pos(r.Intn(nVars))}
		base = append(base, c)
		s.AddClause(c...)
	}
	baseWant := bruteForce(nVars, base)
	for cycle := 0; cycle < 12; cycle++ {
		s.Push()
		scoped := append([][]Lit(nil), base...)
		for i := 0; i < 6; i++ {
			c := []Lit{Pos(r.Intn(nVars)), Neg(r.Intn(nVars))}
			scoped = append(scoped, c)
			s.AddScoped(c...)
		}
		if got, want := s.Solve(), bruteForce(nVars, scoped); got != want {
			t.Fatalf("cycle %d scoped: solver=%v brute=%v", cycle, got, want)
		}
		s.Pop()
		if got := s.Solve(); got != baseWant {
			t.Fatalf("cycle %d after pop: solver=%v brute=%v", cycle, got, baseWant)
		}
	}
}

// TestSessionTrajectory pins a long-lived push/pop session with
// conflicts, learnt-clause deletion and models: the counters and the
// digest of every model must not move.
func TestSessionTrajectory(t *testing.T) {
	for _, tc := range []struct {
		seed                 int64
		cap                  int
		decisions, conflicts int64
		models               uint64
	}{
		{2, 0, 2468, 56, 0x8f5ea424ae5d2a85},
		{3, 20, 2314, 49, 0xa456794a579f760e},
	} {
		s := New()
		s.SetLearntCap(tc.cap)
		sat, models := sessionScopes(s, tc.seed, 40, 6, 8)
		if sat != 40 || models != tc.models {
			t.Errorf("seed %d: %d SAT answers, model digest %#x; pinned 40, %#x", tc.seed, sat, models, tc.models)
		}
		checkStats(t, s, tc.decisions, tc.conflicts)
	}
}

// scanPick is the linear scan the order heap replaced, kept as the
// reference: the unassigned decision variable of highest activity, the
// first among equals.
func scanPick(s *Solver) int {
	best, bestAct := -1, -1.0
	for v := range s.assigns {
		if s.decision[v] && s.assigns[v] == lUndef && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// checkHeap verifies the order heap: positions match entries, no entry
// branches ahead of its parent, no gate variable is queued, and every
// unassigned decision variable except skip is.
func checkHeap(t *testing.T, s *Solver, skip int) {
	t.Helper()
	if len(s.heapPos) != s.NumVars() || len(s.decision) != s.NumVars() {
		t.Fatalf("%d heap positions and %d decision flags for %d variables",
			len(s.heapPos), len(s.decision), s.NumVars())
	}
	for i, v := range s.order {
		if s.heapPos[v] != int32(i) {
			t.Fatalf("heap slot %d holds var %d, whose position is %d", i, v, s.heapPos[v])
		}
		if !s.decision[v] {
			t.Fatalf("heap slot %d holds gate var %d", i, v)
		}
		if i > 0 && s.before(v, s.order[(i-1)/2]) {
			t.Fatalf("heap order broken at slot %d (var %d)", i, v)
		}
	}
	for v, p := range s.heapPos {
		if p < 0 && v != skip && s.decision[v] && s.assigns[v] == lUndef {
			t.Fatalf("unassigned decision var %d missing from the heap", v)
		}
	}
}

// checkPicks makes every decision of s assert that the heap picked what
// the reference scan picks, and never a gate variable. It returns a
// counter of checked decisions.
func checkPicks(t *testing.T, s *Solver) *int {
	n := new(int)
	s.onPick = func(v int) {
		if v >= 0 && !s.decision[v] {
			t.Fatalf("picked gate var %d", v)
		}
		if want := scanPick(s); v != want {
			t.Fatalf("heap picked var %d, scan picks %d", v, want)
		}
		checkHeap(t, s, v)
		*n++
	}
	return n
}

// randomSession applies ops random operations to s: clauses, scopes,
// assumption queries and fresh decision and gate variables, checking
// the heap after each.
func randomSession(t *testing.T, s *Solver, r *rand.Rand, ops int) {
	lit := func() Lit {
		l := Pos(r.Intn(s.NumVars()))
		if r.Intn(2) == 0 {
			l = l.Not()
		}
		return l
	}
	clause := func() []Lit {
		c := make([]Lit, 2+r.Intn(3))
		for i := range c {
			c[i] = lit()
		}
		return c
	}
	for op := 0; op < ops && !s.Unsat(); op++ {
		switch k := r.Intn(10); {
		case k < 3:
			s.AddClause(clause()...)
		case k < 5:
			s.AddScoped(clause()...)
		case k == 5:
			s.Push()
		case k == 6:
			if s.ScopeDepth() > 0 {
				s.Pop()
			}
		case k == 7:
			// Gate variables here are left undefined, so answers are not
			// checked; only the heap invariants are.
			if r.Intn(2) == 0 {
				s.NewVar()
			} else {
				s.NewGateVar()
			}
		case k == 8:
			s.Solve()
		default:
			as := make([]Lit, r.Intn(4))
			for i := range as {
				as[i] = lit()
			}
			s.SolveUnder(as...)
		}
		checkHeap(t, s, -1)
	}
}

// TestOrderHeapMatchesScan drives random sessions and checks every
// decision against the reference scan.
func TestOrderHeapMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	total := 0
	for trial := 0; trial < 60; trial++ {
		s := New()
		s.SetLearntCap(4 + r.Intn(12))
		for i, n := 0, 10+r.Intn(30); i < n; i++ {
			s.NewVar()
		}
		n := checkPicks(t, s)
		randomSession(t, s, r, 200)
		total += *n
	}
	if total < 1000 {
		t.Fatalf("only %d decisions checked", total)
	}
}

// TestOrderHeapRescale forces the activity rescale after activities
// have grown tiny, so scaling rounds distinct activities to zero and
// the heap must re-establish the index tie-break.
func TestOrderHeapRescale(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s := New()
		s.SetLearntCap(8)
		n := checkPicks(t, s)
		s.varInc = 1e-250
		sessionScopes(s, seed, 20, 6, 8)
		checkHeap(t, s, -1)
		s.varInc = 1e100
		sessionScopes(s, seed+100, 20, 6, 8)
		checkHeap(t, s, -1)
		if s.varInc >= 1e100 {
			t.Fatalf("seed %d: no activity rescale in %d decisions", seed, *n)
		}
	}
}
