package solver

import "revnic/internal/expr"

// Verdict is a backend's answer to a satisfiability query. Unlike the
// two-valued Result of the front-end API, backends are explicitly
// three-valued: VUnknown covers both an interrupted search and a
// query outside the backend's decidable domain, and the front end
// must treat it conservatively (answer "unsat", cache nothing).
type Verdict int8

// Backend verdicts.
const (
	VUnknown Verdict = iota
	VUnsat
	VSat
)

// String renders the verdict for logs and tests.
func (v Verdict) String() string {
	switch v {
	case VSat:
		return "sat"
	case VUnsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Backend is the minimal decision-procedure contract underneath the
// solver front end. The front end owns everything query-shaped —
// fingerprint caches, the counterexample index, constraint slicing,
// incremental sessions — so any Backend gets those for free; a
// backend only decides conjunctions. The solver runs the core
// (coreBackend) alone; the seam exists so tests can substitute a
// fake or a reference oracle (smallDomain).
//
// The protocol is a scoped assertion stack:
//
//   - Assert(c) conjoins constraint c (a width-1 expression) at the
//     current scope. Assertions made with no open scope are permanent.
//   - Push opens a scope; Pop retires the most recent scope and every
//     assertion made inside it. Pop on an empty scope stack panics.
//   - SolveUnder(cond) decides SAT(asserted ∧ cond) without asserting
//     cond; cond == nil or constant true decides the asserted
//     conjunction alone.
//   - Model, valid only immediately after a VSat verdict, returns a
//     satisfying assignment as a fresh name→value map.
//   - SATStats reports the SAT search work (decisions, conflicts) the
//     instance has done over its lifetime; a backend without a SAT
//     search reports zeros.
//
// A backend is built with the cooperative abort hook it polls during
// solving (nil for none); an aborted query answers VUnknown.
//
// Backends are not safe for concurrent use; the front end serializes
// access (sessions under incMu, one-shots on private instances).
type Backend interface {
	Assert(c *expr.Expr)
	Push()
	Pop()
	SolveUnder(cond *expr.Expr) Verdict
	Model() map[string]uint32
	SATStats() (decisions, conflicts int64)
}

// coreBackend adapts the bit-blaster + CDCL SAT core to the Backend
// contract. Scopes map to sat assumption-selector scopes: only the
// root literal of each asserted constraint is scoped — the
// definitional gate clauses the blaster emits stay permanent, because
// the blaster memo outlives pops and a memoized literal whose
// defining clauses were retired would be unconstrained.
type coreBackend struct {
	b *blaster
}

func newCoreBackend(interrupt func() bool) Backend {
	b := newBlaster()
	b.s.SetInterrupt(interrupt)
	return &coreBackend{b: b}
}

func (c *coreBackend) Assert(e *expr.Expr) {
	lit := c.b.blast(e)[0]
	c.b.s.AddScoped(lit)
}

func (c *coreBackend) Push() { c.b.s.Push() }
func (c *coreBackend) Pop()  { c.b.s.Pop() }

func (c *coreBackend) SolveUnder(cond *expr.Expr) Verdict {
	var ok bool
	switch {
	case cond == nil || cond.IsTrue():
		ok = c.b.s.Solve()
	case cond.IsFalse():
		// asserted ∧ false is unsatisfiable regardless of the stack.
		return VUnsat
	default:
		lit := c.b.blast(cond)[0]
		ok = c.b.s.SolveUnder(lit)
	}
	if ok {
		return VSat
	}
	if c.b.s.Interrupted() {
		return VUnknown
	}
	return VUnsat
}

func (c *coreBackend) Model() map[string]uint32 { return c.b.model() }

func (c *coreBackend) SATStats() (decisions, conflicts int64) { return c.b.s.Stats() }
