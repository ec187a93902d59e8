package tracez

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"canvassing/internal/obs"
)

// ExemplarsFile is the sidecar written next to the bundle. It is
// deliberately NOT a bundle artifact: exemplar wall times are
// volatile, so the file lives outside the byte-stability contract
// (runsdiff and the determinism oracle never read it).
const ExemplarsFile = "trace_exemplars.jsonl"

// header is the first line of trace_exemplars.jsonl.
type header struct {
	Schema     int           `json:"tracez_schema"`
	Conditions []condSummary `json:"conditions"`
}

type condSummary struct {
	Condition string `json:"condition"`
	Kind      string `json:"kind"`
	Offered   int64  `json:"offered"`
	KeptSlow  int    `json:"kept_slow"`
	KeptHead  int    `json:"kept_head"`
	CostSum   int64  `json:"cost_sum"`
	MaxCost   int64  `json:"max_cost"`
}

// exemplarLine is one exemplar row of trace_exemplars.jsonl.
type exemplarLine struct {
	// Picked records why the reservoir kept this tree: "slow" or
	// "head".
	Picked   string      `json:"picked"`
	Exemplar *VisitTrace `json:"exemplar"`
}

// Export is a decoded trace_exemplars.jsonl.
type Export struct {
	Schema     int             `json:"tracez_schema"`
	Conditions []CondExemplars `json:"conditions"`
}

// WriteExemplars writes the reservoir as trace_exemplars.jsonl at
// path. A nil reservoir writes nothing and returns nil. The phase-level
// critical path is not repeated here: readers compute it from the run
// dir's trace.jsonl (LoadRunDir, then Analyze).
func WriteExemplars(path string, r *Reservoir) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	hdr := header{Schema: SchemaVersion}
	for _, ce := range snap {
		hdr.Conditions = append(hdr.Conditions, condSummary{
			Condition: ce.Condition, Kind: ce.Kind, Offered: ce.Offered,
			KeptSlow: len(ce.Slow), KeptHead: len(ce.Head),
			CostSum: ce.CostSum, MaxCost: ce.MaxCost,
		})
	}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for _, ce := range snap {
		for _, vt := range ce.Slow {
			if err := enc.Encode(exemplarLine{Picked: "slow", Exemplar: vt}); err != nil {
				return err
			}
		}
		for _, vt := range ce.Head {
			if err := enc.Encode(exemplarLine{Picked: "head", Exemplar: vt}); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

// ReadExemplars decodes a trace_exemplars.jsonl written by
// WriteExemplars, rebuilding per-condition exemplar groups in file
// order. Lines that are not exemplars — such as the critical_path
// trailer older sidecars end with — are skipped.
func ReadExemplars(path string) (*Export, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, fmt.Errorf("tracez: %s: empty file", path)
	}
	var hdr header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("tracez: %s: bad header: %w", path, err)
	}
	if hdr.Schema != SchemaVersion {
		return nil, fmt.Errorf("tracez: %s: schema %d, want %d", path, hdr.Schema, SchemaVersion)
	}
	ex := &Export{Schema: hdr.Schema}
	byCond := map[string]*CondExemplars{}
	for _, cs := range hdr.Conditions {
		ce := &CondExemplars{
			Condition: cs.Condition, Kind: cs.Kind, Offered: cs.Offered,
			CostSum: cs.CostSum, MaxCost: cs.MaxCost,
		}
		byCond[cs.Condition] = ce
		ex.Conditions = append(ex.Conditions, *ce) // placeholder; rewritten below
	}
	for sc.Scan() {
		var el exemplarLine
		if err := json.Unmarshal(sc.Bytes(), &el); err != nil || el.Exemplar == nil {
			continue
		}
		ce := byCond[el.Exemplar.Condition]
		if ce == nil {
			ce = &CondExemplars{Condition: el.Exemplar.Condition, Kind: el.Exemplar.Kind}
			byCond[el.Exemplar.Condition] = ce
			ex.Conditions = append(ex.Conditions, *ce)
		}
		if el.Picked == "head" {
			ce.Head = append(ce.Head, el.Exemplar)
		} else {
			ce.Slow = append(ce.Slow, el.Exemplar)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The loop above appended placeholder copies; re-materialize from
	// the live pointers so the exemplar slices land in the result.
	for i := range ex.Conditions {
		ex.Conditions[i] = *byCond[ex.Conditions[i].Condition]
	}
	return ex, nil
}

// RunDir is the trace-analytics view of one run directory: the phase
// spans from trace.jsonl plus, when present, the exemplar sidecar.
type RunDir struct {
	Dir string
	// Phases is the phase-span forest from trace.jsonl.
	Phases []*Span
	// Export is the decoded exemplar sidecar; nil when the run was
	// made without -tracez.
	Export *Export
}

// LoadRunDir reads dir's trace.jsonl (required) and
// trace_exemplars.jsonl (optional).
func LoadRunDir(dir string) (*RunDir, error) {
	recs, err := readSpanRecords(filepath.Join(dir, obs.TraceFile))
	if err != nil {
		return nil, err
	}
	rd := &RunDir{Dir: dir, Phases: BuildForest(recs)}
	exPath := filepath.Join(dir, ExemplarsFile)
	if _, err := os.Stat(exPath); err == nil {
		ex, err := ReadExemplars(exPath)
		if err != nil {
			return nil, err
		}
		rd.Export = ex
	}
	return rd, nil
}

func readSpanRecords(path string) ([]obs.SpanRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []obs.SpanRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("tracez: %s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// VisitForest gathers every retained visit-kind exemplar tree across
// conditions. Exemplars of any other kind are skipped.
func (ex *Export) VisitForest() []*Span {
	if ex == nil {
		return nil
	}
	return visitForest(ex.Conditions)
}

func visitForest(conds []CondExemplars) []*Span {
	var out []*Span
	for _, ce := range conds {
		if ce.Kind != KindVisit {
			continue
		}
		for _, vt := range append(append([]*VisitTrace{}, ce.Slow...), ce.Head...) {
			out = append(out, vt.Root)
		}
	}
	return out
}

// Slowest returns the top-n retained visit exemplars across all
// conditions, cost-descending (ties by condition then index).
func (ex *Export) Slowest(n int) []*VisitTrace {
	if ex == nil {
		return nil
	}
	return slowestOf(ex.Conditions, n)
}

func slowestOf(conds []CondExemplars, n int) []*VisitTrace {
	var all []*VisitTrace
	for _, ce := range conds {
		if ce.Kind != KindVisit {
			continue
		}
		all = append(all, ce.Slow...)
		all = append(all, ce.Head...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Cost != b.Cost {
			return a.Cost > b.Cost
		}
		if a.Condition != b.Condition {
			return a.Condition < b.Condition
		}
		return a.Index < b.Index
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}
