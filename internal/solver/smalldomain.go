package solver

import (
	"sort"

	"revnic/internal/expr"
)

// smallDomainBits bounds the small-domain enumerator: a query whose
// distinct symbolic variables total at most this many bits is decided
// by exhaustive enumeration (≤ 2^16 evaluations), anything wider
// answers VUnknown.
const smallDomainBits = 16

// smallDomain is the reference oracle behind the Backend seam: an
// exhaustive evaluator for narrow sliced queries. It keeps no solver
// state at all — just the asserted constraint stack — so
// Assert/Push/Pop are O(1), and it decides a query by enumerating
// every assignment of the query's variables in a fixed order
// (variables sorted by name, values counting up from zero), which
// makes its verdicts and models fully deterministic.
//
// No production path constructs it. Tests hold the core to it:
// BackendConformanceTest runs both against brute force, and
// small-domain UNSAT verdicts are the ground truth verdict checks
// compare the core against.
type smallDomain struct {
	stack     []*expr.Expr
	marks     []int
	interrupt func() bool
	model     map[string]uint32
}

func newSmallDomainBackend(interrupt func() bool) Backend {
	return &smallDomain{interrupt: interrupt}
}

func (d *smallDomain) Assert(c *expr.Expr) { d.stack = append(d.stack, c) }

func (d *smallDomain) Push() { d.marks = append(d.marks, len(d.stack)) }

func (d *smallDomain) Pop() {
	if len(d.marks) == 0 {
		panic("solver: smalldomain Pop without matching Push")
	}
	n := d.marks[len(d.marks)-1]
	d.marks = d.marks[:len(d.marks)-1]
	d.stack = d.stack[:n]
}

func (d *smallDomain) Model() map[string]uint32 { return copyModel(d.model) }

// SATStats reports zeros: enumeration does no SAT search.
func (d *smallDomain) SATStats() (decisions, conflicts int64) { return 0, 0 }

func (d *smallDomain) SolveUnder(cond *expr.Expr) Verdict {
	cons := d.stack
	if cond != nil && !cond.IsTrue() {
		if cond.IsFalse() {
			return VUnsat
		}
		cons = append(append(make([]*expr.Expr, 0, len(d.stack)+1), d.stack...), cond)
	}
	if len(cons) == 0 {
		d.model = map[string]uint32{}
		return VSat
	}
	widths := expr.VarSet(cons...)
	total := 0
	for _, w := range widths {
		total += int(w)
	}
	if total > smallDomainBits {
		return VUnknown
	}
	names := make([]string, 0, len(widths))
	for n := range widths {
		names = append(names, n)
	}
	sort.Strings(names)
	env := make(map[string]uint32, len(names))
	for n := uint64(0); n < 1<<total; n++ {
		if n&255 == 0 && d.interrupt != nil && d.interrupt() {
			return VUnknown
		}
		// Deal the counter's bits out to the variables in name order,
		// LSB chunk first: assignment order is a pure function of the
		// query, so the first satisfying model is deterministic.
		rest := n
		for _, name := range names {
			w := widths[name]
			env[name] = uint32(rest & (1<<w - 1))
			rest >>= w
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
			d.model = copyModel(env)
			return VSat
		}
	}
	return VUnsat
}
