package rrfd

import "repro/internal/hoalg"

// ---- Model expression algebra (internal/hoalg) ----
//
// A model expression is a higher-order model over the per-round suspicion
// sets D(i,r): atoms are the paper's elementary constraints (eqs. (1)–(5),
// the §3 k-set detector, ...) and expressions close them under and/or/
// not/forever/eventually. One expression compiles three ways: a checkable
// Predicate, an exhaustive adversary enumeration for the model checker, and
// a chaos fault plan whose honest form satisfies the model and whose
// negation violates it. See DESIGN §17.

// ModelParams instantiates a catalog model for a concrete system size
// (n, f, k, stabilization round).
type ModelParams = hoalg.Params

var (
	// ResolveModel turns a -model argument into an expression: a
	// catalog model name instantiated with the params, or failing that
	// a parsed expression string.
	ResolveModel = hoalg.Resolve

	// ModelNames lists the derived-model catalog's names, sorted.
	ModelNames = hoalg.Names
)
