package jsvm

import (
	"fmt"
	"slices"
	"strings"
)

// RunReference runs prog on the tree-walking reference evaluator
// (reference_test.go) instead of its compiled code.
func RunReference(in *Interp, prog *Program) (Value, error) { return in.runReference(prog) }

// listPunct is the punctuator matcher punct replaced: a scan of the
// whole longest-first list at every byte.
func listPunct(s string) string {
	for _, p := range punctuators {
		if strings.HasPrefix(s, p) {
			return p
		}
	}
	return ""
}

// LexDiff lexes src with punct and with listPunct and describes the
// first difference in their tokens (kind, text, offset) or errors; ""
// means none.
func LexDiff(src string) string {
	got, gotErr := lex(src)
	want, wantErr := lexWith(src, listPunct)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, list scan %v", gotErr, wantErr)
	}
	if slices.Equal(got, want) {
		return ""
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Sprintf("from token %d: %v, list scan %v", i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
}
