// Package entropy measures the discriminating power of canvas
// fingerprints — the property §2 of the paper builds on ("canvas
// fingerprinting generates some of the highest entropy" among browser
// fingerprinting surfaces).
//
// It renders a fingerprinting script on a population of synthetic
// machines and reports how well the resulting canvases separate them:
// distinct fingerprints, Shannon entropy of the value distribution, and
// anonymity-set statistics. Because machine profiles perturb rendering
// deterministically, the measurement is exactly reproducible.
package entropy

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"canvassing/internal/detect"
	"canvassing/internal/dom"
	"canvassing/internal/jsvm"
	"canvassing/internal/machine"
)

// Result summarizes one script's discriminating power over a machine
// population.
type Result struct {
	// Label identifies the script measured.
	Label string
	// Machines is the population size.
	Machines int
	// Distinct counts distinct canvas fingerprints observed.
	Distinct int
	// EntropyBits is the Shannon entropy of the fingerprint
	// distribution; MaxBits (= log2 Machines) is the ceiling.
	EntropyBits float64
	MaxBits     float64
	// LargestAnonymitySet is the size of the biggest group of machines
	// sharing a fingerprint (1 = everyone unique).
	LargestAnonymitySet int
	// UniqueMachines counts machines whose fingerprint no other machine
	// shares.
	UniqueMachines int
	// Errors counts machines whose script run failed.
	Errors int
}

// Uniqueness returns the fraction of machines with a unique fingerprint.
func (r Result) Uniqueness() float64 {
	if r.Machines == 0 {
		return 0
	}
	return float64(r.UniqueMachines) / float64(r.Machines)
}

// Measure renders the script on n synthetic machines (plus the two
// built-in profiles) and computes the distribution statistics. The
// fingerprint of a machine is the ordered concatenation of its
// fingerprintable canvas hashes. The script is parsed once, and the
// machines render on GOMAXPROCS goroutines, each on its own interpreter
// and document.
func Measure(label, script string, n int, seed uint64) Result {
	res := Result{Label: label}
	profiles := make([]*machine.Profile, 0, n)
	profiles = append(profiles, machine.Intel(), machine.AppleM1())
	for i := 0; len(profiles) < n; i++ {
		profiles = append(profiles, machine.Synthetic(fmt.Sprintf("pop-%d-%d", seed, i)))
	}
	profiles = profiles[:n]
	res.Machines = len(profiles)
	res.MaxBits = math.Log2(float64(res.Machines))
	prog, err := jsvm.Parse(script)
	if err != nil {
		res.Errors = res.Machines
		return res
	}

	fps := make([]string, len(profiles))
	errs := make([]error, len(profiles))
	workers := min(runtime.GOMAXPROCS(0), len(profiles))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(profiles); i += workers {
				fps[i], errs[i] = fingerprintOn(profiles[i], prog)
			}
		}()
	}
	wg.Wait()
	counts := map[string]int{}
	for i, fp := range fps {
		if errs[i] != nil {
			res.Errors++
			continue
		}
		counts[fp]++
	}
	res.Distinct = len(counts)
	total := float64(res.Machines - res.Errors)
	for _, c := range counts {
		if c > res.LargestAnonymitySet {
			res.LargestAnonymitySet = c
		}
		if c == 1 {
			res.UniqueMachines++
		}
		p := float64(c) / total
		res.EntropyBits -= p * math.Log2(p)
	}
	return res
}

// fingerprintOn runs the script on one machine and returns the canvas
// fingerprint: the concatenated hashes of all extracted canvases.
func fingerprintOn(p *machine.Profile, prog *jsvm.Program) (string, error) {
	in := jsvm.New(jsvm.Options{RandSeed: 1})
	doc := dom.NewDocument(p, "entropy.local")
	var hashes []string
	doc.Tracer = tracerFunc(func(iface, member string, args []string, ret string) {
		if member == "toDataURL" && ret != "" {
			hashes = append(hashes, detect.HashDataURL(ret))
		}
	})
	doc.Install(in)
	if _, err := in.Run(prog); err != nil {
		return "", err
	}
	out := ""
	for _, h := range hashes {
		out += h[:16]
	}
	return out, nil
}

type tracerFunc func(iface, member string, args []string, ret string)

func (f tracerFunc) Trace(iface, member string, args []string, ret string) {
	f(iface, member, args, ret)
}

// Rank orders results by entropy descending (stable on label).
func Rank(results []Result) []Result {
	out := make([]Result, len(results))
	copy(out, results)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].EntropyBits != out[j].EntropyBits {
			return out[i].EntropyBits > out[j].EntropyBits
		}
		return out[i].Label < out[j].Label
	})
	return out
}
