package distrib

import (
	"fmt"
	"sort"
	"testing"
)

// FuzzMergePartialBundles throws corrupted partial sets at MergeCrawl —
// truncated, reordered, duplicated, condition-swapped, total-skewed,
// or dropped units — and holds the merge to its contract: it either
// errors cleanly (no panic) or the accepted set provably tiled the
// frontier exactly, with page order intact and every merged counter
// equal to its sum over the accepted units. A silent partial merge is
// the failure mode this fuzzer exists to rule out.
//
// The input is an op stream over a canonical 4-unit tiling of a
// 40-page frontier: byte pairs (unit, mutation) select a unit and
// corrupt its copy before it joins the merge input.
func FuzzMergePartialBundles(f *testing.F) {
	f.Add([]byte{})                       // empty input → canonical tiling
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0}) // clean, in order
	f.Add([]byte{3, 0, 1, 0, 0, 0, 2, 0}) // clean, reordered
	f.Add([]byte{0, 0, 1, 0, 1, 0, 2, 0}) // duplicated unit
	f.Add([]byte{0, 0, 2, 0, 3, 0})       // missing unit
	f.Add([]byte{0, 0, 1, 1, 2, 0, 3, 0}) // shifted start (overlap)
	f.Add([]byte{0, 0, 1, 2, 2, 0, 3, 0}) // truncated tail (gap)
	f.Add([]byte{0, 0, 1, 3, 2, 0, 3, 0}) // page-count mismatch
	f.Add([]byte{0, 4, 1, 0, 2, 0, 3, 0}) // condition swap
	f.Add([]byte{0, 5, 1, 5, 2, 5, 3, 5}) // skewed totals, consistently
	f.Add([]byte{0, 4, 1, 4, 2, 4, 3, 4}) // condition swap, consistently
	f.Add([]byte{0, 6, 1, 0, 2, 0, 3, 0}) // dropped op
	f.Fuzz(func(t *testing.T, ops []byte) {
		const total = 40
		base := []*Partial{
			mkPartial("control", 0, 0, 10, total, 3),
			mkPartial("control", 1, 10, 20, total, 0),
			mkPartial("control", 2, 20, 30, total, 1),
			mkPartial("control", 3, 30, 40, total, 2),
		}
		var sel []*Partial
		if len(ops) == 0 {
			sel = base
		}
		for i := 0; i+1 < len(ops); i += 2 {
			cp := *base[int(ops[i])%len(base)]
			switch ops[i+1] % 7 {
			case 0:
				// As-is.
			case 1:
				// Shift the range forward one page, keeping the partial
				// internally consistent — a sneaky overlap/gap.
				if cp.Spec.Start+1 <= cp.Spec.End {
					cp.Spec.Start++
					cp.Pages = cp.Pages[1:]
				}
			case 2:
				// Truncate the tail consistently — a sneaky gap.
				if cp.Spec.End-1 >= cp.Spec.Start {
					cp.Spec.End--
					cp.Pages = cp.Pages[:len(cp.Pages)-1]
				}
			case 3:
				// Drop pages without touching the spec: blunt truncation.
				if len(cp.Pages) > 0 {
					cp.Pages = cp.Pages[:len(cp.Pages)-1]
				}
			case 4:
				cp.Spec.Condition = "abp"
			case 5:
				cp.Spec.Total += 10
			case 6:
				continue // dropped unit
			}
			sel = append(sel, &cp)
		}

		m, err := MergeCrawl(sel)
		if err != nil {
			if m != nil {
				t.Fatal("merge returned both a result and an error")
			}
			return
		}
		// The merge accepted: the selected specs must tile [0,total')
		// exactly — recomputed here independently of merge.go's walk.
		specs := make([]UnitSpec, len(sel))
		for i, p := range sel {
			specs[i] = p.Spec
		}
		sort.Slice(specs, func(i, j int) bool { return specs[i].Start < specs[j].Start })
		next := 0
		for i, s := range specs {
			if s.Condition != specs[0].Condition || s.Total != specs[0].Total || s.Start != next {
				t.Fatalf("merge accepted a non-tiling: spec %d = %+v (next=%d)", i, s, next)
			}
			next = s.End
		}
		if next != specs[0].Total {
			t.Fatalf("merge accepted coverage ending at %d of %d", next, specs[0].Total)
		}
		sums := map[string]int64{}
		for _, p := range sel {
			if len(p.Pages) != p.Spec.Pages() {
				t.Fatalf("merge accepted unit %s with %d pages for range [%d,%d)",
					p.Spec.ID, len(p.Pages), p.Spec.Start, p.Spec.End)
			}
			for n, v := range p.Metrics.Counters {
				sums[n] += v
			}
		}
		if len(m.Pages) != specs[0].Total {
			t.Fatalf("merged %d pages of %d", len(m.Pages), specs[0].Total)
		}
		for i, p := range m.Pages {
			if want := fmt.Sprintf("site-%04d.example", i); p.Domain != want {
				t.Fatalf("merged page %d is %s, want %s — range order lost", i, p.Domain, want)
			}
		}
		if len(m.Metrics.Counters) != len(sums) {
			t.Fatalf("merged %d counters, units carry %d", len(m.Metrics.Counters), len(sums))
		}
		for n, want := range sums {
			if got := m.Metrics.Counters[n]; got != want {
				t.Fatalf("merged counter %s = %d, sum over units %d", n, got, want)
			}
		}
	})
}
