package expr

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// genExpr builds one random expression through ar's constructors,
// drawing from every kind the engine produces.
func genExpr(ar *Arena, r *rand.Rand, depth int, w uint8, vars []string) *Expr {
	if depth == 0 || r.Intn(4) == 0 {
		if r.Intn(2) == 0 {
			return ar.C(uint32(r.Int63())&Mask(w), w)
		}
		return ar.S(vars[r.Intn(len(vars))], w)
	}
	switch r.Intn(14) {
	case 0:
		return ar.Add(genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
	case 1:
		return ar.Sub(genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
	case 2:
		return ar.Mul(genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
	case 3:
		return ar.And(genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
	case 4:
		return ar.Or(genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
	case 5:
		return ar.Xor(genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
	case 6:
		return ar.Shl(genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
	case 7:
		return ar.Lshr(genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
	case 8:
		return ar.Ashr(genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
	case 9:
		return ar.Not(genExpr(ar, r, depth-1, w, vars))
	case 10:
		cond := ar.Eq(genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
		return ar.Ite(cond, genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
	case 11:
		if w > 8 {
			return ar.Zext(genExpr(ar, r, depth-1, 8, vars), w)
		}
		return ar.Trunc(genExpr(ar, r, depth-1, 32, vars), w)
	case 12:
		if w == 16 {
			return ar.Concat(genExpr(ar, r, depth-1, 8, vars), genExpr(ar, r, depth-1, 8, vars))
		}
		return ar.Xor(genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
	default:
		c := ar.Ult(genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
		return ar.Ite(c, genExpr(ar, r, depth-1, w, vars), genExpr(ar, r, depth-1, w, vars))
	}
}

// TestInternCanonical is the hash-consing property test: building the
// same random expression twice (identical construction sequences)
// must yield pointer-identical nodes, and their IDs must match.
func TestInternCanonical(t *testing.T) {
	vars := []string{"p", "q", "r"}
	for _, w := range []uint8{8, 16, 32} {
		for trial := 0; trial < 300; trial++ {
			seed := int64(w)*1000 + int64(trial)
			a := genExpr(Default(), rand.New(rand.NewSource(seed)), 4, w, vars)
			b := genExpr(Default(), rand.New(rand.NewSource(seed)), 4, w, vars)
			if a != b {
				t.Fatalf("width %d trial %d: structurally equal builds not pointer-identical:\n%s\n%s", w, trial, a, b)
			}
			if a.ID() == 0 || a.ID() != b.ID() {
				t.Fatalf("IDs diverge: %d vs %d", a.ID(), b.ID())
			}
			if !Equal(a, b) {
				t.Fatal("Equal disagrees with interning")
			}
		}
	}
}

// TestInternPreservesSemantics re-runs the construction in a second,
// fresh arena and checks that evaluation under random environments is
// identical to the default-arena build and that Equal's cross-arena
// structural path still finds the two equal: the intern table may
// never change what an expression means.
func TestInternPreservesSemantics(t *testing.T) {
	vars := []string{"p", "q", "r"}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		seed := int64(trial) + 5000
		interned := genExpr(Default(), rand.New(rand.NewSource(seed)), 4, 32, vars)
		plain := genExpr(NewArena(), rand.New(rand.NewSource(seed)), 4, 32, vars)
		for i := 0; i < 8; i++ {
			env := map[string]uint32{}
			for _, v := range vars {
				env[v] = uint32(r.Int63())
			}
			if got, want := Eval(interned, env), Eval(plain, env); got != want {
				t.Fatalf("trial %d: interned %#x plain %#x under %v\n%s", trial, got, want, env, interned)
			}
		}
		if !Equal(interned, plain) {
			t.Fatalf("trial %d: structural equality lost across arenas", trial)
		}
	}
}

// TestCommutativeCanonicalization checks the operand-ordering rule:
// both orders of a commutative application intern to one node.
func TestCommutativeCanonicalization(t *testing.T) {
	x, y := S("x", 32), S("y", 32)
	for name, pair := range map[string][2]*Expr{
		"add": {Add(x, y), Add(y, x)},
		"mul": {Mul(x, y), Mul(y, x)},
		"and": {And(x, y), And(y, x)},
		"or":  {Or(x, y), Or(y, x)},
		"xor": {Xor(x, y), Xor(y, x)},
		"eq":  {Eq(x, y), Eq(y, x)},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s: operand orders produced distinct nodes", name)
		}
	}
	// Non-commutative operators must not be reordered.
	if Equal(Sub(x, y), Sub(y, x)) {
		t.Error("sub wrongly canonicalized as commutative")
	}
	if Equal(Ult(x, y), Ult(y, x)) {
		t.Error("ult wrongly canonicalized as commutative")
	}
}

// TestInternConcurrent hammers the shard table from many goroutines
// building overlapping expression sets; every goroutine must observe
// the same canonical nodes. Run under -race this is the lock-striping
// regression test.
func TestInternConcurrent(t *testing.T) {
	const goroutines = 8
	results := make([][]*Expr, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]*Expr, 0, 200)
			for i := 0; i < 200; i++ {
				x := S(fmt.Sprintf("cc%d", i%17), 16)
				e := Add(Mul(x, C(uint32(i%13)+2, 16)), C(uint32(i%7), 16))
				out = append(out, Eq(e, C(uint32(i%11), 16)))
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d produced non-canonical node at %d", g, i)
			}
		}
	}
}

// TestIDStability pins the ID contract: nonzero, stable across
// lookups, and distinct for structurally distinct nodes.
func TestIDStability(t *testing.T) {
	a := Add(S("ida", 32), C(1, 32))
	if a.ID() == 0 {
		t.Fatal("constructed node has zero ID")
	}
	if b := Add(S("ida", 32), C(1, 32)); b.ID() != a.ID() {
		t.Fatal("re-built node changed ID")
	}
	if c := Add(S("ida", 32), C(2, 32)); c.ID() == a.ID() {
		t.Fatal("distinct structures share an ID")
	}
	if n := InternedNodes(); n == 0 {
		t.Error("intern table reports empty")
	}
}

// --- interning benchmarks ----------------------------------------------

// buildWorkload constructs the kind of expression chains symbolic
// execution of a polling loop produces: repeated arithmetic over a few
// hardware symbols, heavily re-built from the same sub-structures.
func buildWorkload(n int) *Expr {
	x := S("bw_x", 32)
	y := S("bw_y", 32)
	acc := C(0, 32)
	for i := 0; i < n; i++ {
		step := And(Add(x, C(uint32(i%8), 32)), Xor(y, C(0xFF, 32)))
		acc = Add(acc, Mul(step, step))
	}
	return acc
}

// BenchmarkStructuralEquality measures the O(1) equality claim: two
// canonical deep DAGs compare by pointer.
func BenchmarkStructuralEquality(b *testing.B) {
	x := buildWorkload(256)
	y := buildWorkload(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Equal(x, y) {
			b.Fatal("workloads differ")
		}
	}
}
