package jsvm

// RunReference runs prog on the tree-walking reference evaluator
// (reference_test.go) instead of its compiled code.
func RunReference(in *Interp, prog *Program) (Value, error) { return in.runReference(prog) }
