// Package distrib partitions a study's crawl across worker processes
// and deterministically recombines the partial results — a
// coordinator/worker split built on the crawler's ordered-commit
// pipeline and the checkpoint journal.
//
// The shape of a distributed study:
//
//   - the coordinator partitions each crawl condition's site frontier
//     into contiguous work-units (Partition) and records them in a
//     file-based ledger (Ledger);
//   - N workers each run their unit as a normal checkpointed crawl
//     slice (RunUnit); the unit's checkpoint.json journal, whose last
//     frame marks the crawl done, is its output;
//   - a deterministic merge (MergeCrawl) recombines the journals of
//     one condition (LoadPartial): pages concatenated in range order,
//     events re-sequenced by page ordinal, counters summed, histograms
//     added bucket-wise, and trace exemplar reservoirs re-selected from
//     the union.
//
// Partition-invariance is the package's contract, extending the
// width-invariance the commit-order rules already guarantee: the
// merged study's manifest, events.jsonl, report, and deterministic
// metrics projection are byte-identical to the single-process run at
// any partition count — TestDistribPartitionOracle enforces it, clean
// and fault-injected, including a kill-and-resume worker.
//
// Crash tolerance rides on the same journal: a dead worker's unit is
// reassigned and resumes from the committed frontier its journal
// holds, and the merge refuses a unit whose journal does not mark its
// crawl done. Each coordinator run starts every unit directory empty.
// Transport is local-process spawn with the file-based unit ledger; no
// network is involved.
package distrib

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// SchemaVersion gates the unit.json and ledger.json wire formats.
const SchemaVersion = 1

// Well-known file names inside a distributed run directory.
const (
	// UnitSpecFile describes one work-unit, written into its unit
	// directory at partition time so process workers are self-contained.
	UnitSpecFile = "unit.json"
	// LedgerFile is the coordinator's unit ledger.
	LedgerFile = "ledger.json"
)

// StudySpec is the run-shape a work-unit needs to reproduce its slice
// of the study exactly: the same seed, scale, and crawl knobs the
// coordinator's single-process equivalent would use. It travels in
// unit.json, so a worker process rebuilds the same web, lists, and
// fault plans from it alone.
type StudySpec struct {
	Seed  uint64  `json:"seed"`
	Scale float64 `json:"scale"`
	// Workers is the per-unit crawler pool width (<=0 selects the
	// crawler default). Width does not affect bundle bytes — that is
	// the width-invariance the partition oracle builds on.
	Workers int `json:"workers"`
	// FaultRate / Retries / VisitTimeout mirror canvassing.Options; the
	// fault model is a pure function of (seed, rate), so every unit
	// regenerates identical per-site plans.
	FaultRate    float64       `json:"fault_rate,omitempty"`
	Retries      int           `json:"retries,omitempty"`
	VisitTimeout time.Duration `json:"visit_timeout,omitempty"`
	// TraceVisits captures per-visit exemplars into a per-unit
	// reservoir; the merge re-selects from the union of the partial
	// reservoirs.
	TraceVisits bool `json:"trace_visits,omitempty"`
	// CheckpointEvery is the unit-level checkpoint cadence in committed
	// pages (<=0 selects the checkpoint default).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Interact plants the interaction-gated vendor deployments in the
	// worker's regenerated web. The distributable load-time crawls
	// never drive them, but the pages must carry the same script tags
	// as the coordinator's web or the partials diverge.
	Interact bool `json:"interact,omitempty"`
}

// UnitSpec is one work-unit: a contiguous range [Start, End) of one
// condition's site frontier (in crawl order), plus the study shape.
type UnitSpec struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	// Condition is the crawl condition this unit belongs to
	// ("control", "abp", "ubo", "m1").
	Condition string `json:"condition"`
	// Start and End bound the unit's half-open page range within the
	// condition's frontier; Total is the frontier length.
	Start int `json:"start"`
	End   int `json:"end"`
	Total int `json:"total"`
	// Study is the run shape shared by every unit of the study.
	Study StudySpec `json:"study"`
}

// Pages returns the unit's page count.
func (u UnitSpec) Pages() int { return u.End - u.Start }

// Partition splits each condition's frontier of `total` sites into
// `parts` contiguous units of near-equal size (sizes differ by at most
// one; leading units take the remainder). The split is a pure function
// of (total, parts): dispatch order may be shuffled, but the ranges —
// and therefore the merged bytes — never depend on scheduling. A parts
// value above total collapses to total units; below one, to one.
func Partition(conditions []string, total, parts int, study StudySpec) []UnitSpec {
	if parts < 1 {
		parts = 1
	}
	if parts > total && total > 0 {
		parts = total
	}
	var units []UnitSpec
	for _, cond := range conditions {
		base, rem := 0, 0
		if parts > 0 {
			base, rem = total/parts, total%parts
		}
		start := 0
		for k := 0; k < parts; k++ {
			n := base
			if k < rem {
				n++
			}
			units = append(units, UnitSpec{
				Schema:    SchemaVersion,
				ID:        fmt.Sprintf("%s-%02d", cond, k),
				Condition: cond,
				Start:     start,
				End:       start + n,
				Total:     total,
				Study:     study,
			})
			start += n
		}
	}
	return units
}

// WriteUnitSpec writes spec as unit.json under dir, creating dir.
func WriteUnitSpec(dir string, spec UnitSpec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("distrib: unit spec: %w", err)
	}
	return atomicWrite(filepath.Join(dir, UnitSpecFile), append(data, '\n'))
}

// ReadUnitSpec reads and validates dir's unit.json.
func ReadUnitSpec(dir string) (UnitSpec, error) {
	var spec UnitSpec
	data, err := os.ReadFile(filepath.Join(dir, UnitSpecFile))
	if err != nil {
		return spec, fmt.Errorf("distrib: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("distrib: unit spec: %w", err)
	}
	if spec.Schema > SchemaVersion {
		return spec, fmt.Errorf("distrib: unit spec schema v%d is newer than supported v%d", spec.Schema, SchemaVersion)
	}
	if err := spec.validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// validate checks a spec's internal consistency.
func (u UnitSpec) validate() error {
	switch {
	case u.ID == "":
		return fmt.Errorf("distrib: unit without id")
	case u.Condition == "":
		return fmt.Errorf("distrib: unit %s without condition", u.ID)
	case u.Start < 0 || u.End < u.Start || u.End > u.Total:
		return fmt.Errorf("distrib: unit %s has bad range [%d,%d) of %d", u.ID, u.Start, u.End, u.Total)
	}
	return nil
}

// atomicWrite writes data to path via a same-directory temp file and
// rename, so concurrent readers never see a torn file.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("distrib: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("distrib: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("distrib: %w", err)
	}
	return nil
}
